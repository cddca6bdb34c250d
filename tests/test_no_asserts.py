"""Package structure: runtime checks survive `python -O`, and the public
names resolve."""

import ast
from pathlib import Path

import traceforms.algebra

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "traceforms"


def test_no_assert_statements_in_package():
    assert (PACKAGE / "__init__.py").is_file()
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_algebra_exports_resolve():
    missing = [name for name in traceforms.algebra.__all__ if not hasattr(traceforms.algebra, name)]
    assert missing == []
