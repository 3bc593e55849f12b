"""Static checks on the package source."""
import ast
from pathlib import Path

import mdd

SOURCES = sorted(Path(mdd.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so no check the package relies on may be one.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert found == []
