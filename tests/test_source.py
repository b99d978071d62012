"""Rules that hold for the package source as a whole."""

import ast
from pathlib import Path

import edgeprice

PACKAGE_DIR = Path(edgeprice.__file__).resolve().parent


def test_no_assert_statements():
    # runtime invariants are explicit raises, so they survive python -O
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert PACKAGE_DIR / "uniform.py" in modules
    found = [f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                            filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
