"""Command-line front end.

Exit codes: 0 ok, 1 invalid arguments, 2 solver failure, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import os
import sys

from .continuum import convergence_study, profile_compare
from .eigensolver import SharpConstantReport, extremal_polynomial, sharp_constant
from .exceptions import ConvergenceError
from .jacobi import JacobiWeightParams
from .pencil import build_pencil, dump_banded
from .verification import run_verification

# A command lives for one run, and the objects its imports made (about
# 21,600 tracked ones, from numpy and the package) live until it exits.
# Frozen, the collector skips them in every later pass and at exit, which
# saves about 20 ms of a cold command's finalization, and forked sweep
# workers inherit them untouched.  Done here rather than in main(),
# which tests call in-process, and not in the package, whose library
# hosts keep their collector as it is.
gc.freeze()

_REPORT_FIELDS = [field.name for field in dataclasses.fields(SharpConstantReport)]
_FORMATS = ("table", "csv", "json")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments by default; this tool
    # reserves 2 for solver failures and uses 1 for bad input.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x, spec=".17g"):
    if isinstance(x, (int, str)):
        return str(x)
    return format(float(x), spec)


def _json(x):
    """A number, NaN as null (a failed sweep row carries it, and JSON has
    no NaN), or an array of them."""
    if isinstance(x, (int, float)):
        return "null" if math.isnan(x) else _fmt(x)
    return "[" + ", ".join(map(_json, x)) + "]"


def _json_object(keys, values):
    return "{" + ", ".join(f'"{k}": {_json(v)}' for k, v in zip(keys, values)) + "}"


def _lines(rows, sep):
    """One line per row, its cells through _fmt joined by sep."""
    return "".join(sep.join(map(_fmt, row)) + "\n" for row in rows)


def _emit(text, path):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _reports_text(rows, fmt):
    """The report rows as CSV, a table or a JSON array (of any length)."""
    if fmt == "json":
        return "[\n" + ",\n".join("  " + _json_object(_REPORT_FIELDS, r) for r in rows) + "\n]\n"
    if fmt == "csv":
        return _lines([_REPORT_FIELDS, *rows], ",")
    return _lines([[f"{_fmt(v, '.6g'):>14}" for v in row] for row in [_REPORT_FIELDS, *rows]], "")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return value


def _weight_param(text):
    value = _finite_float(text)
    if not value > -1.0:
        raise argparse.ArgumentTypeError(f"weight exponents must exceed -1, got {text}")
    return value


def _comma_list(parse):
    def comma_list(text):
        return [parse(part) for part in text.split(",")] if text.strip() else []

    return comma_list


def _n_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected START:STOP:STEP")
    start, stop, step = (int(p) for p in parts)
    if start < 1 or stop < start or step < 1:
        raise argparse.ArgumentTypeError(f"bad range {text}")
    return list(range(start, stop + 1, step))


def _add_common(sub, needs_n=True, has_format=True):
    sub.add_argument("--alpha", type=_weight_param, required=True)
    sub.add_argument("--beta", type=_weight_param, required=True)
    if needs_n:
        sub.add_argument("--n", type=_positive_int, required=True)
    sub.add_argument("--tol", type=float, default=1e-12)
    if has_format:
        sub.add_argument("--format", choices=_FORMATS, default="table")
    sub.add_argument("--output", default=None)


def build_parser():
    parser = _Parser(prog="mblab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    constant = subs.add_parser("constant", help="sharp constant for one (alpha, beta, n)")
    _add_common(constant)
    constant.add_argument(
        "--dump-pencil", default=None, help="write the banded A, D to this path"
    )
    constant.set_defaults(run=_cmd_constant)

    sweep = subs.add_parser("sweep", help="grid of constants as CSV/JSON")
    sweep.add_argument("--alpha", type=_comma_list(_weight_param), required=True, help="comma list")
    sweep.add_argument("--beta", type=_comma_list(_weight_param), required=True, help="comma list")
    sweep.add_argument("--n", type=_comma_list(_positive_int), default=[], help="comma list of degrees")
    sweep.add_argument("--n-range", type=_n_range, default=[], help="START:STOP:STEP")
    sweep.add_argument("--tol", type=float, default=1e-12)
    sweep.add_argument("--format", choices=_FORMATS, default="csv")
    sweep.add_argument("--output", default=None)
    sweep.add_argument("--parallel", type=_positive_int, default=os.cpu_count() or 1)
    sweep.set_defaults(run=_cmd_sweep)

    extremal = subs.add_parser("extremal", help="coefficients of the extremal polynomial")
    _add_common(extremal)
    extremal.set_defaults(run=_cmd_extremal)

    profile = subs.add_parser(
        "profile", help="eigenvector bundle vs closed-form profile data"
    )
    # The data go to two files of fixed layout, so there is no --format.
    _add_common(profile, has_format=False)
    profile.set_defaults(run=_cmd_profile)

    asym = subs.add_parser("asymptotics", help="convergence study over a degree list")
    _add_common(asym, needs_n=False)
    asym.add_argument("--n-list", type=_comma_list(_positive_int), required=True, help="ascending comma list")
    asym.set_defaults(run=_cmd_asymptotics)

    verify = subs.add_parser("verify", help="run the cross-module checks")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--perturb",
        type=_finite_float,
        default=0.0,
        help="scale the superdiagonal of H's factor K2 by (1+eps), which scales h2 by"
        " (1+eps) and moves h1; the residual checks should fail.  Write a negative"
        " value with '=', as --perturb=-1e-3",
    )
    verify.set_defaults(run=_cmd_verify)

    return parser


def _cmd_constant(args):
    params = JacobiWeightParams(args.alpha, args.beta)
    # Built before anything is written: it raises past the raw norms' range.
    pen = build_pencil(params, args.n) if args.dump_pencil else None
    row = dataclasses.astuple(sharp_constant(params, args.n, args.tol))
    # One object, where sweep and asymptotics print an array.
    text = (_json_object(_REPORT_FIELDS, row) + "\n" if args.format == "json"
            else _reports_text([row], args.format))
    if pen is None:
        _emit(text, args.output)
        return 0
    # Opened before the report is written, and removed if the report
    # cannot be: a path that cannot be opened leaves neither file behind.
    with open(args.dump_pencil, "w", encoding="utf-8") as fh:
        try:
            _emit(text, args.output)
        except OSError:
            fh.close()
            os.remove(args.dump_pencil)
            raise
        dump_banded(pen, fh)
    return 0


def _sweep_task(task):
    """The report row of one sweep task, or None if its solve failed."""
    alpha, beta, n, tol = task
    try:
        return dataclasses.astuple(sharp_constant(JacobiWeightParams(alpha, beta), n, tol))
    except (ConvergenceError, OverflowError):
        return None


def _cmd_sweep(args):
    ns = sorted(set(args.n) | set(args.n_range))
    for option, values in (("--alpha is", args.alpha), ("--beta is", args.beta), ("--n and --n-range are", ns)):
        if not values:
            raise ValueError(f"{option} empty")
    tasks = [(a, b, n, args.tol) for a in sorted(set(args.alpha)) for b in sorted(set(args.beta)) for n in ns]
    if args.parallel > 1 and len(tasks) > 1:
        # Imported here: it loads multiprocessing, which no other command
        # needs and every command would pay for at start-up.
        from concurrent.futures import ProcessPoolExecutor

        # The pool starts all its workers at the first submit (fork start
        # method): never more than there are tasks.
        with ProcessPoolExecutor(max_workers=min(args.parallel, len(tasks))) as pool:
            rows = list(pool.map(_sweep_task, tasks))
    else:
        rows = [_sweep_task(task) for task in tasks]
    # A failed row keeps its n, alpha, beta and carries NaN elsewhere.
    nans = (float("nan"),) * (len(_REPORT_FIELDS) - 3)
    out_rows = [row or (n, a, b, *nans) for row, (a, b, n, _) in zip(rows, tasks)]
    _emit(_reports_text(out_rows, args.format), args.output)
    return 2 if None in rows else 0


def _cmd_extremal(args):
    params = JacobiWeightParams(args.alpha, args.beta)
    u, v, m_n = extremal_polynomial(params, args.n, args.tol)
    if args.format == "json":
        text = _json_object(("n", "alpha", "beta", "m_n", "u", "v"),
                            (args.n, args.alpha, args.beta, m_n, u, v)) + "\n"
    else:
        sep = "," if args.format == "csv" else " "
        last = ("# m_n", m_n, "") if sep == "," else ("m_n", m_n)
        text = _lines([("k", "u", "v"), *zip(range(args.n), u, v), last], sep)
    _emit(text, args.output)
    return 0


def _cmd_profile(args):
    params = JacobiWeightParams(args.alpha, args.beta)
    comparison = profile_compare(params, args.n, args.tol)
    prefix = args.output or f"profile_a{args.alpha:g}_b{args.beta:g}_n{args.n}"
    for suffix, series in (
        ("discrete", comparison.discrete),
        ("closedform", comparison.closed_form),
    ):
        _emit(_lines(zip(comparison.t, series), " "), f"{prefix}.{suffix}.tsv")
    print(
        f"branch={comparison.branch} degenerate={comparison.degenerate} "
        f"l_star={_fmt(comparison.l_star)} sup_defect={_fmt(comparison.sup_defect)} "
        f"files={prefix}.discrete.tsv,{prefix}.closedform.tsv"
    )
    return 0


def _cmd_asymptotics(args):
    params = JacobiWeightParams(args.alpha, args.beta)
    if not args.n_list:
        raise ValueError("--n-list is empty")
    reports = convergence_study(params, args.n_list, args.tol)
    _emit(_reports_text([dataclasses.astuple(r) for r in reports], args.format), args.output)
    return 0


def _cmd_verify(args):
    results = run_verification(seed=args.seed, perturb=args.perturb)
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        ok = ok and res.passed
        print(f"{status} {res.name}: {res.detail}")
    print("verification " + ("passed" if ok else "FAILED"))
    return 0 if ok else 3


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.run(args)
    except (ValueError, OverflowError, MemoryError, OSError) as exc:
        # MemoryError: an --n whose arrays exceed what can be allocated;
        # OSError: an --output, --dump-pencil or profile path that cannot be
        # opened.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
