"""Structural guards on the package: module boundaries and import cost."""

import ast
import dataclasses
import os
import subprocess
import sys
import types
from pathlib import Path

import mblab
from mblab import ScaledPencil

PACKAGE_DIR = Path(mblab.__file__).parent


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_cross_imports(path):
    """(line, description) for every private name `path` takes from a
    sibling module, by `from .x import _y` or by `x._y` after `from . import x`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    siblings = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            from_package = node.level == 1 and node.module is None
            for alias in node.names:
                if from_package:
                    siblings.add(alias.asname or alias.name)
                elif _is_private(alias.name):
                    found.append((node.lineno, f"from {node.module} import {alias.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and _is_private(node.attr)
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_imports_a_siblings_private_name():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(paths) >= 10
    offenders = {path.name: hits for path in paths if (hits := _private_cross_imports(path))}
    assert offenders == {}


def _environment_reads(path):
    """(line, name) for every `os.environ` or `os.getenv` in `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.lineno, f"os.{node.attr}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
        and node.attr in ("environ", "getenv")
    ]


def test_no_module_reads_the_environment():
    # A command's behaviour is on its command line: no hidden setting.
    offenders = {
        path.name: hits for path in sorted(PACKAGE_DIR.glob("*.py")) if (hits := _environment_reads(path))
    }
    assert offenders == {}


def test_guard_flags_private_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from . import eigensolver\n"
        "from .pencil import _g, public\n"
        "x = eigensolver._solve()\n"
        "y = eigensolver.__name__\n",
        encoding="utf-8",
    )
    assert _private_cross_imports(sample) == [
        (2, "from pencil import _g"),
        (3, "eigensolver._solve"),
    ]


# What a weight is read by: its exponents, its Bessel orders, the weight
# itself and every field of a ScaledPencil (params among them).
_WEIGHT_ATTRIBUTES = {"alpha", "beta"} | {field.name for field in dataclasses.fields(ScaledPencil)}


def _weight_reads(path, allowed):
    """(function, line, name) for every read of `params`, of an attribute
    alpha, beta or nu_* or of a ScaledPencil field, in a private function or
    class of `path` not named in `allowed`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or not _is_private(top.name):
            continue
        if top.name in allowed:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id == "params":
                found.append((top.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute) and (
                node.attr in _WEIGHT_ATTRIBUTES or node.attr.startswith("nu_")
            ):
                found.append((top.name, node.lineno, node.attr))
    return sorted(found)


def test_only_two_solver_functions_read_the_weight():
    # The solver works on the bands of H and its factors: _solve_core takes
    # them out of the pencil, and _block_size reads the weight's Bessel
    # orders for the iteration's block size.
    assert _weight_reads(PACKAGE_DIR / "eigensolver.py", {"_solve_core", "_block_size"}) == []


def test_guard_flags_weight_reads(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def _a(params):\n"
        "    return params\n"
        "def _b(pencil, bands):\n"
        "    h0, h1, h2 = bands\n"
        "    return pencil.k1_0, pencil.params.nu_star, h0\n"
        "class _C:\n"
        "    def solve(self, p):\n"
        "        return p.beta\n"
        "def public(p):\n"
        "    return p.alpha\n"
        "def _allowed(p):\n"
        "    return p.alpha\n",
        encoding="utf-8",
    )
    assert _weight_reads(sample, {"_allowed"}) == [
        ("_C", 8, "beta"),
        ("_a", 2, "params"),
        ("_b", 5, "k1_0"),
        ("_b", 5, "nu_star"),
        ("_b", 5, "params"),
    ]


def test_public_names():
    # One public function per quantity and one result type for the solver.
    names = sorted(
        name
        for name, value in vars(mblab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == [
        "AccuracyWindowError", "CheckResult", "ConvergenceError", "JacobiWeightParams",
        "ParticularSolution", "ProfileBranch", "ProfileComparison", "ScaledPencil",
        "SharpConstantReport", "Solution", "bessel_j", "bessel_j_derivative",
        "bundle_matching_defect", "convergence_study", "extremal_polynomial",
        "gauss_jacobi_quadrature", "log_gamma", "log_norm_sequence", "monic_eval_table",
        "norm_ratio", "norm_sequence", "ode_residual", "particular_v",
        "particular_x_sequence", "profile_compare", "profile_y", "raising_coefficient",
        "recurrence_coefficients", "residual_support", "root_condition_min_l",
        "run_verification", "scaled_pencil", "sharp_constant", "smallest_eigenpair",
        "smallest_positive_zero", "solve", "y_bundle",
    ]


def _fresh(code):
    """stdout of `code` run in a fresh interpreter that imports mblab from
    this checkout."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def _loaded_by(module, names):
    """The modules named in `names`, or inside them, that a fresh
    `import module` loads."""
    return _fresh(
        f"import sys, {module}\n"
        f"print(sorted(m for m in sys.modules"
        f" if any(m == r or m.startswith(r + '.') for r in {names!r})))"
    )


def test_import_loads_no_scipy():
    assert _loaded_by("mblab", ("scipy",)) == "[]"


def test_import_loads_no_mpmath():
    # mpmath is a test-only dependency; no module of the package loads it.
    assert _loaded_by("mblab", ("mpmath",)) == "[]"


def test_only_the_cli_freezes_the_collector():
    # A cold command skips the collector's passes over its imports; a
    # library host that imports mblab keeps its collector as it was.
    assert _fresh("import gc, mblab; print(gc.get_freeze_count())") == "0"
    assert int(_fresh("import gc, mblab.cli; print(gc.get_freeze_count())")) > 0


def test_cli_import_loads_no_process_pool():
    # Only `sweep --parallel` above 1 starts worker processes.
    assert _loaded_by("mblab.cli", ("concurrent.futures", "multiprocessing")) == "[]"


def test_zero_finder_loads_no_mpmath():
    # j_12 and j_50 lie where the ascending series would cancel; the zero
    # finder runs on the float64 ratio J_nu / J_{nu+1} instead.
    code = (
        "import sys\n"
        "from mblab import smallest_positive_zero\n"
        "zeros = [smallest_positive_zero(nu) for nu in (2.0, 12.0, 50.0)]\n"
        "print('mpmath' in sys.modules)"
    )
    assert _fresh(code) == "False"


def test_verify_loads_no_numpy_random():
    # The Rayleigh check draws its vectors from the standard library's
    # generator; numpy.random alone would add about 5 MB to `mblab verify`.
    code = (
        "import sys\n"
        "from mblab import run_verification\n"
        "results = run_verification(seed=3)\n"
        "print(all(r.passed for r in results), 'numpy.random' in sys.modules)"
    )
    assert _fresh(code) == "True False"


def test_bessel_and_profile_load_no_mpmath():
    # J_25(30) and the (5, 8) profile points lie where the ascending series
    # cancels; the backward recurrence stays in float64.  In-process tests
    # cannot see an import: conftest loads mpmath.
    code = (
        "import sys\n"
        "from mblab import JacobiWeightParams, bessel_j, profile_compare\n"
        "value = bessel_j(25.0, 30.0)\n"
        "profile_compare(JacobiWeightParams(5.0, 8.0), 400)\n"
        "loaded = 'mpmath' in sys.modules\n"
        "import mpmath\n"
        "with mpmath.workdps(40):\n"
        "    exact = mpmath.besselj(25, 30)\n"
        "print(loaded, float(abs(value - exact)))"
    )
    loaded, err = _fresh(code).split()
    assert loaded == "False"
    assert float(err) <= 1e-13
