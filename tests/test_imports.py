"""Structural guards on the package: module boundaries and import cost."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mblab

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


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    code = (
        "import sys, mblab\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
