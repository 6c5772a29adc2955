"""No module of the package uses ``assert``.

``python -O`` strips assert statements, so a check written with one
would silently pass there; the library raises typed errors instead.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wittlab"
MODULES = sorted(PACKAGE.glob("*.py"))


def assert_lines(source):
    """Line numbers of the assert statements in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_detects_asserts():
    source = "def f(x):\n    assert x\n    return x\nassert f(1) == 1\n"
    assert assert_lines(source) == [2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []
