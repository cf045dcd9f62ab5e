import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mblab
from mblab.cli import build_parser, main
from mblab.verification import run_verification


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constant_table(capsys):
    code, out, _ = run(capsys, ["constant", "--n", "1", "--alpha", "0", "--beta", "0"])
    assert code == 0
    assert "1.73205" in out


def test_constant_json(capsys):
    code, out, _ = run(
        capsys, ["constant", "--n", "2", "--alpha", "0", "--beta", "0", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {
        "n", "alpha", "beta", "lambda_min", "m_n", "predicted", "ratio", "residual"
    }
    assert data["m_n"] == pytest.approx(math.sqrt(15.0), rel=1e-10)
    # numbers carry 17 significant digits
    assert '"m_n": 3.8729833462074' in out


@pytest.mark.parametrize(
    "one,two",
    [
        (["sweep", "--alpha=0.3", "--beta=1.7", "--n", "100", "--parallel", "1"],
         ["sweep", "--alpha=0.3", "--beta=1.7", "--n", "100,200", "--parallel", "1"]),
        (["asymptotics", "--alpha=0", "--beta=2", "--n-list", "50"],
         ["asymptotics", "--alpha=0", "--beta=2", "--n-list", "50,100"]),
    ],
    ids=["sweep", "asymptotics"],
)
def test_report_lists_are_json_arrays_of_any_length(capsys, one, two):
    # sweep and asymptotics print an array, also of one row; constant
    # prints one object
    code, out, _ = run(capsys, one + ["--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert isinstance(rows, list) and len(rows) == 1
    code, out, _ = run(capsys, two + ["--format", "json"])
    assert code == 0
    assert rows[0] == json.loads(out)[0]
    code, out, _ = run(capsys, ["constant", "--alpha=0.3", "--beta=1.7", "--n", "100", "--format", "json"])
    assert code == 0
    assert isinstance(json.loads(out), dict)


def test_invalid_arguments_exit_one(capsys):
    assert run(capsys, ["constant", "--n", "0", "--alpha", "0", "--beta", "0"])[0] == 1
    assert run(capsys, ["constant", "--n", "2", "--alpha", "-1", "--beta", "0"])[0] == 1
    assert run(capsys, ["sweep", "--alpha", "0,-1", "--beta", "0"])[0] == 1
    assert run(capsys, ["nope"])[0] == 1
    for n_range, why in [("4:8", "expected START:STOP:STEP"), ("8:4:1", "bad range 8:4:1"),
                         ("0:4:1", "bad range 0:4:1")]:
        code, out, err = run(capsys, ["sweep", "--alpha=0", "--beta=0", "--n-range", n_range])
        assert (code, out) == (1, "") and err.endswith(f"error: argument --n-range: {why}\n")
    code, out, err = run(capsys, ["asymptotics", "--alpha=0", "--beta=0", "--n-list", ""])
    assert (code, out, err) == (1, "", "error: --n-list is empty\n")


@pytest.mark.parametrize(
    "command,call",
    [
        ("constant", "sharp_constant"),
        ("extremal", "extremal_polynomial"),
        ("profile", "profile_compare"),
        ("asymptotics", "convergence_study"),
    ],
)
def test_solver_failure_exits_two(capsys, monkeypatch, tmp_path, command, call):
    import mblab.cli as cli
    from mblab.exceptions import ConvergenceError

    def failing(*args):
        raise ConvergenceError("injected")

    monkeypatch.setattr(cli, call, failing)
    degrees = ["--n-list", "60,120"] if command == "asymptotics" else ["--n", "60"]
    argv = [command, "--alpha=0", "--beta=0", "--output", str(tmp_path / "out")] + degrees
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", "solver failure: injected\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("alpha", ["inf", "1e999", "nan", "1e200", "1e78"])
def test_exponent_past_double_range_exits_one(capsys, alpha):
    # inf and 1e999 parse to inf and are refused as arguments; 1e200 is
    # refused where H is formed, and 1e78, whose H is finite, where
    # ||B^-1 q||^2 overflows: all name the exponent
    code, out, err = run(capsys, ["constant", f"--alpha={alpha}", "--beta=0.5", "--n", "10"])
    assert (code, out) == (1, "")
    assert "alpha" in err and "empty sequence" not in err


def test_unallocatable_n_exits_one(capsys):
    # One int64 array of 2^55 entries is 256 PiB, beyond any address
    # space, so numpy refuses at once and nothing is allocated.
    code, out, err = run(capsys, ["constant", "--n", str(2**55), "--alpha", "0.3", "--beta", "1.7"])
    assert (code, out) == (1, "")
    assert err.startswith("error: Unable to allocate")


def test_sweep_empty_grid(capsys):
    # An empty grid is bad input, not an empty table: a header alone (or
    # "[", "", "]" as JSON) would pass for a finished sweep.
    for argv, option in [
        (["--alpha=0", "--beta=0"], "--n and --n-range are"),
        (["--alpha=0", "--beta=0", "--n="], "--n and --n-range are"),
        (["--alpha=", "--beta=0", "--n=4"], "--alpha is"),
        (["--alpha=0", "--beta=", "--n=4", "--format", "json"], "--beta is"),
        (["--alpha", "", "--beta", ""], "--alpha is"),
    ]:
        code, out, err = run(capsys, ["sweep", "--parallel", "1"] + argv)
        assert (code, out, err) == (1, "", f"error: {option} empty\n")


def test_sweep_deterministic_and_ordered(capsys, tmp_path):
    argv = [
        "sweep", "--alpha", "1,0", "--beta", "0", "--n", "8,4",
        "--parallel", "1", "--format", "csv",
    ]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    code, out2, _ = run(capsys, argv)
    assert out1 == out2
    rows = [line.split(",") for line in out1.strip().splitlines()[1:]]
    keys = [(float(r[1]), float(r[2]), int(r[0])) for r in rows]
    assert keys == sorted(keys)


def test_sweep_parallel_matches_serial(capsys):
    base = ["sweep", "--alpha", "0", "--beta", "0,1", "--n", "5,10"]
    _, serial, _ = run(capsys, base + ["--parallel", "1"])
    _, parallel, _ = run(capsys, base + ["--parallel", "2"])
    assert serial == parallel


def test_sweep_starts_no_more_workers_than_tasks(capsys, monkeypatch):
    # The pool starts all its workers at the first submit: a 4-task grid
    # under --parallel 64 asks for 4.
    import concurrent.futures

    seen = []

    class Recording:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    base = ["sweep", "--alpha", "0,1", "--beta", "0.5", "--n", "5,10", "--format", "json"]
    _, serial, _ = run(capsys, base + ["--parallel", "1"])
    _, pooled, _ = run(capsys, base + ["--parallel", "64"])
    assert seen == [4]
    assert pooled == serial


def test_sweep_ratio_approaches_one(capsys):
    code, out, _ = run(
        capsys, ["sweep", "--alpha", "0", "--beta", "0", "--n", "50,100", "--parallel", "1"]
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    ratios = [float(r[6]) for r in rows]
    assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)


def test_sweep_row_failure_yields_nan_and_exit_two(capsys, monkeypatch):
    import mblab.cli as cli
    from mblab.exceptions import ConvergenceError

    real = cli.sharp_constant

    def flaky(params, n, tol):
        if n == 6:
            raise ConvergenceError("injected")
        return real(params, n, tol)

    monkeypatch.setattr(cli, "sharp_constant", flaky)
    code, out, _ = run(
        capsys, ["sweep", "--alpha", "0", "--beta", "0", "--n", "4,6", "--parallel", "1"]
    )
    assert code == 2
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 2
    bad = rows[1].split(",")
    assert bad[0] == "6"
    assert bad[6] == "nan"


def test_sweep_json_failed_row_is_null(capsys, monkeypatch):
    import mblab.cli as cli
    from mblab.exceptions import ConvergenceError

    real = cli.sharp_constant

    def flaky(params, n, tol):
        if n == 6:
            raise ConvergenceError("injected")
        return real(params, n, tol)

    monkeypatch.setattr(cli, "sharp_constant", flaky)
    code, out, _ = run(
        capsys,
        [
            "sweep", "--alpha", "0", "--beta", "0", "--n", "4,6",
            "--parallel", "1", "--format", "json",
        ],
    )
    assert code == 2
    good, bad = json.loads(out)
    assert good["n"] == 4 and good["m_n"] > 0
    assert bad["n"] == 6
    assert bad["lambda_min"] is None and bad["ratio"] is None


def test_sweep_n_range(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--alpha", "0", "--beta", "0", "--n-range", "4:8:2", "--parallel", "1"],
    )
    assert code == 0
    ns = [int(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert ns == [4, 6, 8]


def test_constant_output_file_and_dump(capsys, tmp_path):
    # at n = 1 both off-diagonal bands of A are empty, at n = 2 the second
    for n in (1, 2, 4):
        out_path = tmp_path / f"report{n}.csv"
        dump_path = tmp_path / f"bands{n}.txt"
        code, _, _ = run(
            capsys,
            [
                "constant", "--n", str(n), "--alpha", "0.5", "--beta", "1.5",
                "--format", "csv", "--output", str(out_path),
                "--dump-pencil", str(dump_path),
            ],
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "n,alpha,beta,lambda_min,m_n,predicted,ratio,residual"
        assert len(lines) == 2
        bands = dump_path.read_text().splitlines()
        # three bands of A, then the diagonal of D
        assert [len(band.split()) for band in bands] == [n, n - 1, max(n - 2, 0), n]


def test_dump_pencil_past_raw_range_writes_nothing(capsys, tmp_path):
    # the raw norms leave double range at d_481 for (0.3, 1.7); the pencil
    # is built before the report, so the failed command emits no row
    dump_path = tmp_path / "bands.txt"
    out_path = tmp_path / "report.json"
    argv = [
        "constant", "--n", "600", "--alpha=0.3", "--beta=1.7",
        "--format", "json", "--dump-pencil", str(dump_path),
    ]
    for extra in ([], ["--output", str(out_path)]):
        code, out, err = run(capsys, argv + extra)
        assert code == 1
        assert out == ""
        assert "d_481" in err and "n=600" in err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["constant", "--n", "10", "--output", "{missing}/x.json"],
        ["constant", "--n", "10", "--dump-pencil", "{missing}/bands.txt"],
        ["profile", "--n", "60", "--output", "{missing}/prof"],
    ],
)
def test_unopenable_output_exits_one(capsys, tmp_path, argv):
    missing = tmp_path / "missing"
    argv = [arg.format(missing=missing) for arg in argv] + ["--alpha=0.3", "--beta=0.5"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(missing) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "output, dump", [("rep.json", "missing/bands.txt"), ("missing/rep.json", "bands.txt")]
)
def test_unopenable_path_leaves_neither_file(capsys, tmp_path, output, dump):
    argv = ["constant", "--n", "10", "--alpha=0.3", "--beta=0.5",
            "--output", str(tmp_path / output), "--dump-pencil", str(tmp_path / dump)]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == "" and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_extremal_csv(capsys):
    code, out, _ = run(
        capsys,
        ["extremal", "--n", "2", "--alpha", "0", "--beta", "0", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,u,v"
    parts = lines[2].split(",")
    assert float(parts[2]) == pytest.approx(1.0, rel=1e-10)
    assert float(parts[1]) == pytest.approx(0.5, rel=1e-10)


def test_extremal_json(capsys):
    code, out, _ = run(
        capsys,
        ["extremal", "--n", "3", "--alpha", "1", "--beta", "0.5", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["u"]) == 3 and len(data["v"]) == 3
    assert data["m_n"] > 0


def test_profile_writes_two_column_files(capsys, tmp_path):
    prefix = str(tmp_path / "prof")
    code, out, _ = run(
        capsys,
        ["profile", "--n", "60", "--alpha", "1", "--beta", "0", "--output", prefix],
    )
    assert code == 0
    assert "branch=2" in out
    for suffix in ("discrete", "closedform"):
        lines = (tmp_path / f"prof.{suffix}.tsv").read_text().strip().splitlines()
        assert all(len(line.split()) == 2 for line in lines)
        assert len(lines) > 20


def test_profile_rejects_format(capsys, tmp_path):
    # the profile data go to two files of fixed layout
    prefix = tmp_path / "prof"
    code, out, err = run(
        capsys,
        [
            "profile", "--n", "60", "--alpha", "1", "--beta", "0",
            "--output", str(prefix), "--format", "json",
        ],
    )
    assert code == 1
    assert out == ""
    assert "--format" in err
    assert list(tmp_path.iterdir()) == []


def test_asymptotics(capsys):
    code, out, _ = run(
        capsys,
        [
            "asymptotics", "--alpha", "0", "--beta", "0",
            "--n-list", "10,20", "--format", "csv",
        ],
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_verify_passes_and_is_seed_deterministic(capsys):
    code, out1, _ = run(capsys, ["verify", "--seed", "7"])
    assert code == 0
    assert "verification passed" in out1
    code, out2, _ = run(capsys, ["verify", "--seed", "7"])
    assert out1 == out2


def test_verify_negative_seed_exits_one(capsys):
    # The standard-library generator would accept -1; run_verification
    # refuses it, as numpy's generator did.
    code, out, err = run(capsys, ["verify", "--seed", "-1"])
    assert (code, out) == (1, "")
    assert err == "error: seed must be non-negative, got -1\n"
    with pytest.raises(ValueError):
        run_verification(seed=-1)


@pytest.mark.parametrize(
    "eps, line",
    [
        ("1e-3", "FAIL small_n_oracle_equivalence: max rel defect"),
        # h2 scaled by 1e300: the oracle check's solve raises on the
        # squares of the bands, and the check reports its message
        ("1e300", "FAIL small_n_oracle_equivalence: the diagonal of B = H^T H leaves double"
                  " range (the bands of H reach"),
    ],
    ids=["1e-3", "1e300"],
)
def test_verify_perturbation_fails(capsys, eps, line):
    code, out, _ = run(capsys, ["verify", "--perturb", eps])
    assert code == 3
    assert line in out
    # lambda_min is not small here: no line blames it
    assert "below about 1e-154" not in out


def test_verify_negative_perturbation(capsys):
    # argparse reads a separate "-1e-3" as an option, so a negative factor
    # is written with "="
    code, out, _ = run(capsys, ["verify", "--perturb=-1e-3"])
    assert code == 3
    assert "FAIL" in out
    code, out, err = run(capsys, ["verify", "--perturb", "-1e-3"])
    assert (code, out) == (1, "")
    assert "--perturb: expected one argument" in err


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
def test_verify_non_finite_perturbation_exits_one(capsys, eps):
    code, out, err = run(capsys, ["verify", f"--perturb={eps}"])
    assert (code, out) == (1, "")
    assert err.endswith(f"error: argument --perturb: expected a finite number, got {eps}\n")


@pytest.mark.parametrize("value", ["garbage", "1e-6"])
def test_environment_does_not_change_a_command(capsys, monkeypatch, value):
    # A command's tolerance is its --tol or 1e-12; nothing else sets it
    argv = ["constant", "--alpha=0", "--beta=0", "--n", "6", "--format", "json"]
    monkeypatch.delenv("MB_LAB_TOL", raising=False)
    unset = run(capsys, argv)
    monkeypatch.setenv("MB_LAB_TOL", value)
    assert run(capsys, argv) == unset
    assert unset[0] == 0


def test_help_names_each_subcommand_once():
    # argparse lists the subcommands itself; the description does not repeat them
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(subs.choices) >= 6
    named = [c for c in subs.choices if re.search(rf"\b{c}\b", parser.description)]
    assert named == []


def _run_module(argv, cwd):
    """`python -m mblab.cli *argv` in a fresh interpreter, with PYTHONPATH
    at this checkout's src."""
    env = dict(os.environ, PYTHONPATH=str(Path(mblab.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "mblab.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (["constant", "--alpha=0", "--beta=0", "--n", "2"], 0, "3.87298", ""),
        (["verify", "--seed=-1"], 1, "", "error: seed must be non-negative, got -1\n"),
        (["verify", "--perturb=1e-3"], 3, "verification FAILED\n", ""),
    ],
    ids=["constant", "verify-negative-seed", "verify-perturbed"],
)
def test_console_entry_passes_the_exit_code(tmp_path, argv, code, out, err):
    # `python -m mblab.cli` runs the module's __main__ block, and so
    # entry(), the console script's target: main's code leaves through
    # SystemExit as the process's exit status
    proc = _run_module(argv, tmp_path)
    assert (proc.returncode, proc.stderr) == (code, err)
    assert out in proc.stdout


def test_console_sweep_workers_forked_from_a_frozen_parent(tmp_path):
    # The module freezes the collector at import, so the --parallel 2
    # workers start from a frozen parent; their rows match a serial run
    argv = ["sweep", "--alpha=0.3,1.3", "--beta=1.7", "--n", "100,200", "--format", "json"]
    serial, parallel = (_run_module(argv + ["--parallel", p], tmp_path) for p in "12")
    assert (serial.returncode, serial.stderr) == (0, "")
    assert (parallel.returncode, parallel.stderr, parallel.stdout) == (0, "", serial.stdout)
