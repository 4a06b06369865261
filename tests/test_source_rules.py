"""Rules about the package source itself, checked on its syntax tree."""

import ast
from pathlib import Path

import virtree

SOURCES = sorted(Path(virtree.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "simkernel.py", "scenario.py"}


def test_no_assert_statements():
    # invariants are enforced by real checks: ``python -O`` strips asserts
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
