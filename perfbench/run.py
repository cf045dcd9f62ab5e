"""mblab benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mblab is imported from ./src.
Workloads (see workloads.py):

  solve_large_n  sharp_constant at n = 1e4, 2e4, 4e4 (the eigensolver)
  study_session  constant + extremal + profile + convergence study, n = 4000
  cli_cold       short `mblab` commands, each in a fresh interpreter

Every request's output is checked against reference.json (mpmath
lambda_min, see make_reference.py).  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it reports the per-layer metrics of a
traced run, plus the tracing overhead against an untraced run of the
same requests.  The last stdout line is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PY = sys.executable

# A lambda more than GATE_REL away from the reference (relative) is a
# wrong answer.  Errors below the README's stated accuracy (tol = 1e-12)
# are reported as ERR_FLOOR, so roundoff-level changes inside the claim
# do not read as regressions.
GATE_REL = 1e-6
ERR_FLOOR = 1e-12
# profile_compare's sup_defect (~1e-4 at n = 4000) against the mpmath
# value, absolute; a lambda error at the gate moves it by ~1e-7.
SUP_DEFECT_TOL = 1e-6
SETUP_SAMPLES = 6
PROBE_SAMPLES = 3
# Time budget of one workload run: DEADLINE_MIN_S, or more when --seconds
# asks for more work than that holds (a traced run issues its requests
# twice, untraced and traced).
DEADLINE_MIN_S = 170.0
DEADLINE_MARGIN_S = 60.0
DEADLINE_FACTOR = 2.0

# Spans that must fire in a traced run of each workload: public entry
# points only, so a refactor of private helpers does not break the trace.
EXPECTED_SPANS = {
    "solve_large_n": {"eigensolver.sharp_constant", "pencil.scaled_pencil"},
    "study_session": {
        "eigensolver.sharp_constant", "eigensolver.extremal_polynomial", "pencil.scaled_pencil",
        "jacobi.log_norm_sequence", "special.smallest_positive_zero", "special.bessel_j",
        "discrete.y_bundle", "continuum.profile_compare", "continuum.convergence_study",
    },
    "cli_cold": {
        "cli.main", "eigensolver.sharp_constant", "eigensolver.extremal_polynomial",
        "pencil.scaled_pencil", "pencil.build_pencil",
        "jacobi.log_norm_sequence", "special.smallest_positive_zero", "special.bessel_j",
        "discrete.y_bundle", "continuum.profile_compare", "continuum.convergence_study",
        "verification.run_verification",
    },
}

CLI_COMMANDS = ("constant", "extremal", "asymptotics", "profile", "sweep", "verify")
IMPORT_DEPS = ("numpy", "scipy", "mpmath", "mblab")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed request)."""


def deadline_seconds(workload, n_passes, trace):
    passes_issued = 2 * math.ceil(n_passes / 2) if trace else n_passes
    planned = passes_issued * wl.PASS_SECONDS[workload]
    return max(DEADLINE_MIN_S, DEADLINE_MARGIN_S + DEADLINE_FACTOR * planned)


class Runner:
    def __init__(self, workdir, budget_s):
        self.workdir = workdir
        self.deadline = time.monotonic() + budget_s
        self.env = dict(os.environ)
        self.env.pop("MB_LAB_TOL", None)
        self.env["PYTHONPATH"] = str(SRC)
        self._count = 0

    def spawn(self, argv, cwd=None):
        """Run argv to completion; returns (exit code, stdout, stderr,
        wall seconds, peak RSS in MB of the child and its reaped children)."""
        self._count += 1
        out_path = self.workdir / f"p{self._count}.out"
        err_path = self.workdir / f"p{self._count}.err"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=cwd or self.workdir)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code < 0:
            raise BenchError(f"{argv[1:3]} killed by signal {-code}")
        stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
        out_path.unlink()
        err_path.unlink()
        return code, stdout, stderr, seconds, usage.ru_maxrss / 1024.0


def load_reference():
    data = json.loads((BENCH / "reference.json").read_text())
    return ({k: float(v) for k, v in data["lambda"].items()},
            {k: float(v) for k, v in data["sup_defect"].items()})


class Checker:
    """Judges request outputs against the stored references."""

    def __init__(self):
        self.lam, self.sup = load_reference()

    def lambda_err(self, alpha, beta, n, lam):
        key = wl.case_key(alpha, beta, n)
        if key not in self.lam:
            raise BenchError(f"no stored reference for {key}")
        if not (isinstance(lam, float) and math.isfinite(lam) and lam > 0.0):
            raise ValueError(f"lambda {lam!r} at {key} is not a positive finite number")
        ref = self.lam[key]
        return abs(lam - ref) / ref

    def sup_err(self, alpha, beta, n, value):
        key = wl.case_key(alpha, beta, n)
        if key not in self.sup:
            raise BenchError(f"no stored sup_defect for {key}")
        if not math.isfinite(value):
            raise ValueError(f"sup_defect {value!r} is not finite")
        return abs(value - self.sup[key])

    def judge(self, errors, sup_errors=()):
        """(ok, reason) for a request whose lambda errors were collected."""
        worst = max(errors)
        if worst > GATE_REL:
            return False, f"lambda off by {worst:.2e} (gate {GATE_REL:g})"
        for e in sup_errors:
            if e > SUP_DEFECT_TOL:
                return False, f"sup_defect off by {e:.2e} (gate {SUP_DEFECT_TOL:g})"
        return True, ""

    def check_solve(self, req, rec):
        a, b = req["weight"]
        err = self.lambda_err(a, b, req["n"], rec["lambda"])
        if abs(rec["m_n"] * math.sqrt(rec["lambda"]) - 1.0) > 1e-12:
            raise ValueError("m_n is not lambda^-1/2")
        return [err], []

    def check_study(self, req, rec):
        a, b = req["weight"]
        n = req["n"]
        errs = [self.lambda_err(a, b, n, rec["lambda"]),
                self.lambda_err(a, b, n, rec["extremal_m_n"] ** -2.0),
                self.lambda_err(a, b, n, rec["l_star"] / float(n) ** 4)]
        if [m for m, _ in rec["convergence"]] != req["convergence"]:
            raise ValueError("convergence study returned other degrees")
        errs += [self.lambda_err(a, b, m, lam) for m, lam in rec["convergence"]]
        if not rec["extremal_finite"]:
            raise ValueError("extremal polynomial has non-finite coefficients")
        return errs, [self.sup_err(a, b, n, rec["sup_defect"])]

    def check_cli(self, req, rec):
        """Parses one CLI invocation's output; raises ValueError when it is
        malformed or the exit code is not 0."""
        if rec["code"] != 0:
            raise ValueError(f"exit code {rec['code']}: {rec['stderr'].strip()[-200:]}")
        a, b = req["weight"]
        out = rec["stdout"]
        cmd = req["command"]
        if cmd == "constant":
            row = json.loads(out)
            if (row["n"], row["alpha"], row["beta"]) != (wl.CLI_CONSTANT_N, a, b):
                raise ValueError("constant echoed other inputs")
            return [self.lambda_err(a, b, wl.CLI_CONSTANT_N, float(row["lambda_min"]))], []
        if cmd == "extremal":
            lines = out.splitlines()
            n = wl.CLI_EXTREMAL_N
            if len(lines) != n + 2 or lines[0].split() != ["k", "u", "v"]:
                raise ValueError("extremal table has the wrong shape")
            for k, line in enumerate(lines[1:-1]):
                cells = line.split()
                if int(cells[0]) != k or not all(math.isfinite(float(c)) for c in cells[1:]):
                    raise ValueError(f"extremal row {k} is malformed")
            label, m_n = lines[-1].split()
            if label != "m_n":
                raise ValueError("extremal table lacks the m_n line")
            return [self.lambda_err(a, b, n, float(m_n) ** -2.0)], []
        if cmd == "asymptotics":
            lines = out.splitlines()
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
            if [int(r["n"]) for r in rows] != list(wl.CLI_ASYMPTOTICS_NS):
                raise ValueError("asymptotics returned other degrees")
            return [self.lambda_err(a, b, int(r["n"]), float(r["lambda_min"])) for r in rows], []
        if cmd == "profile":
            fields = dict(part.split("=", 1) for part in out.split())
            n = wl.CLI_PROFILE_N
            expected_rows = n - 1 - math.ceil(n / 4.0)
            for path in fields["files"].split(","):
                lines = (Path(rec["cwd"]) / path).read_text().splitlines()
                if len(lines) != expected_rows:
                    raise ValueError(f"{path} has {len(lines)} rows, expected {expected_rows}")
                if not all(math.isfinite(float(x)) for line in lines for x in line.split()):
                    raise ValueError(f"{path} holds non-finite values")
            return ([self.lambda_err(a, b, n, float(fields["l_star"]) / float(n) ** 4)],
                    [self.sup_err(a, b, n, float(fields["sup_defect"]))])
        if cmd == "sweep":
            rows = json.loads(out)
            grid = [(x, b, n) for x in wl.sweep_alphas(a) for n in wl.CLI_SWEEP_NS]
            if [(r["alpha"], r["beta"], r["n"]) for r in rows] != grid:
                raise ValueError("sweep rows are not the requested grid in order")
            return [self.lambda_err(x, y, n, float(r["lambda_min"]))
                    for (x, y, n), r in zip(grid, rows)], []
        if cmd == "verify":
            if out.splitlines()[-1] != "verification passed":
                raise ValueError("verify did not report success")
            return [0.0], []
        raise BenchError(f"unknown command {cmd}")


def evaluate(workload, reqs, records, checker):
    """Per request: (ok, lambda error or None, reason)."""
    check = {"solve_large_n": checker.check_solve, "study_session": checker.check_study,
             "cli_cold": checker.check_cli}[workload]
    results = []
    for req, rec in zip(reqs, records):
        if "error" in rec:
            results.append((False, None, "raised " + rec["error"].split(":")[0]))
            continue
        try:
            errors, sup_errors = check(req, rec)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            results.append((False, None, f"malformed output ({type(exc).__name__}: {exc})"))
            continue
        ok, reason = checker.judge(errors, sup_errors)
        results.append((ok, max(errors), reason))
    return results


def completed_seconds(records):
    """Wall times of the requests that ran to the end: a request that
    raised or exited non-zero aborted early and has no service time (it
    still counts as failed)."""
    return [r["seconds"] for r in records if "error" not in r and r.get("code", 0) == 0]


def tail(samples):
    """Highest nearest-rank percentile with at least ten samples above it:
    returns (value, percentile, sample count)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


# -- workload execution ---------------------------------------------------

def run_library(runner, workload, reqs, trace):
    job = runner.workdir / "job.json"
    out = runner.workdir / "result.json"
    job.write_text(json.dumps({"src": str(SRC), "workload": workload,
                               "requests": reqs, "trace": trace}))
    code, _, err, _, rss = runner.spawn([PY, str(BENCH / "serve.py"), str(job), str(out)])
    if code != 0:
        raise BenchError(f"serve.py exited {code}: {err.decode(errors='replace')[-2000:]}")
    result = json.loads(out.read_text())
    return result["records"], result.get("trace", {}), set(result.get("fired", ())), rss


def run_cli(runner, reqs, trace):
    records, summary, fired, peak = [], {}, set(), 0.0
    base = Path(tempfile.mkdtemp(dir=runner.workdir))
    for i, req in enumerate(reqs):
        cwd = base / str(i)
        cwd.mkdir()
        trace_out = cwd / "trace.json" if trace else "-"
        code, out, err, seconds, rss = runner.spawn(
            [PY, str(BENCH / "launch.py"), str(SRC), str(trace_out), *req["argv"]], cwd=cwd)
        records.append({"code": code, "stdout": out.decode(errors="replace"),
                        "stderr": err.decode(errors="replace"), "seconds": seconds,
                        "cwd": str(cwd)})
        peak = max(peak, rss)
        if trace:
            data = json.loads(Path(trace_out).read_text())
            summary[str(i)] = data["trace"].get("0", {})
            fired |= set(data["fired"])
    return records, summary, fired, peak


def run_workload(runner, workload, reqs, trace):
    if workload == "cli_cold":
        records, summary, fired, rss = run_cli(runner, reqs, trace)
    else:
        records, summary, fired, rss = run_library(runner, workload, reqs, trace)
    if len(records) != len(reqs):
        raise BenchError("the workload returned fewer records than requests")
    return records, summary, fired, rss


def setup_samples(runner, count):
    """Seconds from a fresh interpreter until `import mblab` completes."""
    code = ("import time, mblab; "
            "print(repr(time.time())); print(mblab.__file__)")
    samples = []
    for _ in range(count):
        t0 = time.time()
        rc, out, err, _, _ = runner.spawn([PY, "-c", code])
        if rc != 0:
            raise BenchError(f"import mblab failed: {err.decode(errors='replace')[-2000:]}")
        stamp, path = out.decode().split()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"mblab was imported from {path}, not from {SRC}")
        samples.append(float(stamp) - t0)
    return samples


# -- per-layer probes (traced runs) -------------------------------------------

def cold_start_probe(runner):
    """Interpreter floor, import cost, -X importtime breakdown and the
    sweep process-pool overhead.  Returns (metrics, sweep outputs agree)."""
    floor = statistics.median(runner.spawn([PY, "-c", "pass"])[3] for _ in range(PROBE_SAMPLES))
    imp = statistics.median(runner.spawn([PY, "-c", "import mblab"])[3]
                            for _ in range(PROBE_SAMPLES))
    _, _, err, _, _ = runner.spawn([PY, "-X", "importtime", "-c", "import mblab"])
    self_us = dict.fromkeys(IMPORT_DEPS, 0)
    scipy_special_us = None
    for line in err.decode().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line.split(":", 1)[1].split("|")
        if not parts[0].strip().isdigit():
            continue                                   # the header line
        own, cumulative, name = int(parts[0]), int(parts[1]), parts[2].strip()
        top = name.split(".")[0]
        if top in self_us:
            self_us[top] += own
        if name == "scipy.special" and scipy_special_us is None:
            scipy_special_us = cumulative
    if scipy_special_us is None:
        scipy_special_us = 0                           # mblab no longer imports it
    a, b = wl.CLI_WEIGHTS[0]
    launch = [PY, str(BENCH / "launch.py"), str(SRC), "-"]
    times = {1: [], 2: []}
    outputs = set()
    for _ in range(PROBE_SAMPLES):
        for parallel in (1, 2):
            code, out, _, seconds, _ = runner.spawn(launch + wl.sweep_argv(a, b, parallel))
            times[parallel].append(seconds)
            outputs.add((code, out))
    metrics = {
        "cli.interpreter_s": floor,
        "cli.import_s": imp - floor,
        "cli.import_scipy_special_s": scipy_special_us * 1e-6,
        **{f"cli.importtime_{dep}_s": self_us[dep] * 1e-6 for dep in IMPORT_DEPS},
        "cli.sweep_pool_overhead_s": statistics.median(times[2]) - statistics.median(times[1]),
    }
    return metrics, len(outputs) == 1


def size_table_probe(runner, checker):
    """smallest_eigenpair(scaled_pencil(p, n)) at the ROADMAP sizes."""
    job = runner.workdir / "size_job.json"
    out = runner.workdir / "size_result.json"
    job.write_text(json.dumps({"src": str(SRC), "workload": "solve_large_n", "requests": [],
                               "trace": False,
                               "size_table": {"weight": list(wl.SIZE_WEIGHT),
                                              "ns": list(wl.SIZE_NS)}}))
    code, _, err, _, _ = runner.spawn([PY, str(BENCH / "serve.py"), str(job), str(out)])
    if code != 0:
        raise BenchError(f"size table failed: {err.decode(errors='replace')[-2000:]}")
    metrics = {}
    for row in json.loads(out.read_text())["size_table"]:
        n = row["n"]
        metrics[f"eigensolver.iterations_n{n}"] = row["iterations"]
        metrics[f"eigensolver.solve_s_n{n}"] = row["seconds"]
        metrics[f"eigensolver.lambda_rel_err_n{n}"] = checker.lambda_err(
            *wl.SIZE_WEIGHT, n, row["lambda"])
    return metrics


def layer_metrics(workload, reqs, summary):
    """Per-layer numbers from the span summary; a layer the workload does
    not reach reads 0."""
    n_req = len(reqs)
    calls, total, own, per_call = {}, {}, {}, {}
    cli_main = {c: [] for c in CLI_COMMANDS}
    for i, spans in summary.items():
        for name, (c, t, s, durations) in spans.items():
            calls[name] = calls.get(name, 0) + c
            total[name] = total.get(name, 0.0) + t
            own[name] = own.get(name, 0.0) + s
            per_call.setdefault(name, []).extend(durations)
            if name == "cli.main":
                cli_main[reqs[int(i)]["command"]].extend(durations)

    def med(values):
        return statistics.median(values) if values else 0.0

    m = {f"cli.{c}_s": med(cli_main[c]) for c in CLI_COMMANDS}
    m.update({
        "pencil.scaled_pencil_s": med(per_call.get("pencil.scaled_pencil", [])),
        "pencil.scaled_pencil_calls_per_request": calls.get("pencil.scaled_pencil", 0) / n_req,
        "eigensolver.self_s": sum(v for k, v in own.items() if k.startswith("eigensolver."))
        / n_req,
        "jacobi.log_norm_sequence_s": total.get("jacobi.log_norm_sequence", 0.0) / n_req,
        "special.zero_calls": calls.get("special.smallest_positive_zero", 0) / n_req,
        "special.zero_s": total.get("special.smallest_positive_zero", 0.0) / n_req,
        "special.bessel_j_calls": calls.get("special.bessel_j", 0) / n_req,
        "special.bessel_j_s": total.get("special.bessel_j", 0.0) / n_req,
        "discrete.y_bundle_calls": calls.get("discrete.y_bundle", 0) / n_req,
        "discrete.y_bundle_s": total.get("discrete.y_bundle", 0.0) / n_req,
        "continuum.profile_compare_self_s": own.get("continuum.profile_compare", 0.0) / n_req,
        "verification.run_s": med(per_call.get("verification.run_verification", [])),
    })
    return m


# -- driver -----------------------------------------------------------------

def summarize(workload, reqs, results):
    failed = sum(1 for ok, _, _ in results if not ok)
    reasons = {}
    for ok, _, why in results:
        if not ok:
            key = why.split(" (")[0] if why.startswith("malformed") else why.split(" by ")[0]
            reasons[key] = reasons.get(key, 0) + 1
    print(f"# {workload}: {len(reqs)} requests, {failed} failed "
          + (json.dumps(reasons) if reasons else ""))
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.PASS_SECONDS, "all"],
                        help="one workload, or all of them in turn (one JSON line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mblab" / "__init__.py").is_file():
        raise BenchError(f"no mblab sources under {SRC}")
    checker = Checker()
    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    names = list(wl.PASS_SECONDS) if args.workload == "all" else [args.workload]
    for name in names:
        workdir = Path(tempfile.mkdtemp(dir=scratch))
        try:
            run = traced_run if args.trace else untraced_run
            n_passes = wl.passes(name, args.seconds)
            runner = Runner(workdir, deadline_seconds(name, n_passes, args.trace))
            run(runner, checker, name, args.seed, n_passes)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


def untraced_run(runner, checker, workload, seed, n_passes):
    # Half the set-up samples before the workload and half after, so the
    # median spans the run rather than one moment of a noisy host.
    setup = setup_samples(runner, SETUP_SAMPLES // 2)
    reqs = wl.requests(workload, seed, n_passes)
    records, _, _, rss = run_workload(runner, workload, reqs, trace=False)
    setup = statistics.median(setup + setup_samples(runner, SETUP_SAMPLES - SETUP_SAMPLES // 2))
    results = evaluate(workload, reqs, records, checker)
    failed = summarize(workload, reqs, results)
    latencies = completed_seconds(records)
    if not latencies:
        raise BenchError("no request ran to completion")
    tail_value, tail_pct, count = tail(latencies)
    # Accuracy of the answers that passed; wrong answers show in ok_frac.
    errors = [e for ok, e, _ in results if ok]
    worst_any = max([e for _, e, _ in results if e is not None], default=float("nan"))
    unexpected = unexpected_failures(workload, reqs, results)
    values = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "setup_s": setup,
        "lambda_rel_err_max": max([ERR_FLOOR, *errors]),
        "ok_frac": (len(reqs) - failed) / len(reqs),
        "peak_rss_mb": rss,
    }
    metrics = declared("end_to_end", values)
    for name, (value, unit) in metrics.items():
        print(f"# {workload} {name} = {value:.6g} {unit}")
    print(f"# {workload} failed_frac = {failed / len(reqs):.6g} ratio")
    print(f"# {workload} latency_tail_s is p{tail_pct:.1f} of {count} samples")
    print(f"# {workload} lambda error over every request that returned one = {worst_any:.6g}")
    for line in unexpected:
        print(f"# unexpected failure: {line}")
    emit(not unexpected, len(reqs), failed, metrics)


def traced_run(runner, checker, workload, seed, n_passes):
    half = max(1, math.ceil(n_passes / 2))
    reqs = wl.requests(workload, seed, half)
    plain, _, _, _ = run_workload(runner, workload, reqs, trace=False)
    records, summary, fired, _ = run_workload(runner, workload, reqs, trace=True)
    missing = EXPECTED_SPANS[workload] - fired
    if missing:
        raise BenchError(f"wrappers that never fired on {workload}: {sorted(missing)}")
    results = evaluate(workload, reqs, records, checker)
    failed = summarize(workload, reqs, results)
    unexpected = unexpected_failures(workload, reqs, results)
    values = layer_metrics(workload, reqs, summary)
    cold, sweeps_agree = cold_start_probe(runner)
    values.update(cold)
    values.update(size_table_probe(runner, checker))
    p50_plain = statistics.median(completed_seconds(plain))
    p50_traced = statistics.median(completed_seconds(records))
    values["trace.overhead_frac"] = p50_traced / p50_plain - 1.0
    if not sweeps_agree:
        unexpected.append("sweep stdout differs between --parallel 1 and --parallel 2")
    for line in unexpected:
        print(f"# unexpected failure: {line}")
    metrics = declared("per_layer", values)
    for name, (value, unit) in metrics.items():
        print(f"# {workload} {name} = {value:.6g} {unit}")
    emit(not unexpected, len(reqs), failed, metrics)


def declared(kind, values):
    """The metrics BENCHMARK.json declares under `kind`, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"no value measured for {missing}")
    return {m["name"]: (values[m["name"]], m["unit"]) for m in spec}


def unexpected_failures(workload, reqs, results):
    out = []
    for req, (ok, _, why) in zip(reqs, results):
        if not ok and wl.request_key(workload, req) not in wl.KNOWN_FAILURES:
            out.append(f"{wl.request_key(workload, req)}: {why}")
    return sorted(set(out))


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
