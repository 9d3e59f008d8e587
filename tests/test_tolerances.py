"""Numeric thresholds live in fairtopk.tolerances and nowhere else."""

import ast
from pathlib import Path

import fairtopk
from fairtopk import tolerances

SRC = Path(fairtopk.__file__).parent


def bare_tolerances(path):
    """(line, value) of every float constant with 0 < |value| < 1e-3."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-3
    )


def test_no_bare_tolerance_outside_the_module():
    found = [
        f"{path.name}:{line}: {value!r}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "tolerances.py"
        for line, value in bare_tolerances(path)
    ]
    assert not found, "float literals below 1e-3 belong in tolerances.py:\n" + "\n".join(found)


def test_the_module_imports_nothing_and_names_only_floats():
    tree = ast.parse(Path(tolerances.__file__).read_text(encoding="utf-8"))
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    names = [name for name in vars(tolerances) if not name.startswith("_")]
    assert names
    for name in names:
        value = getattr(tolerances, name)
        assert isinstance(value, float) and 0.0 < value < 1.0, name
