"""Rules about the package source itself, checked on its syntax tree."""

import ast
from pathlib import Path

import virtree
from virtree import metrics

SOURCES = sorted(Path(virtree.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "simkernel.py", "scenario.py", "cli.py",
                                         "oracle.py"}


def test_no_assert_statements():
    # invariants are enforced by real checks: ``python -O`` strips asserts
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_trace_events_named_only_in_the_schema_and_emit_calls():
    # readers pick records out through the maps metrics derives from
    # _SHAPES, so a format change edits the schema and the emit calls only
    events = {name for s in metrics._SHAPES for name in (s.event, f"{s.comp}.{s.event}")}
    found = []
    for path in SOURCES:
        if path.name == "metrics.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        emitted = {id(arg) for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "emit" for arg in node.args}
        found += [f"{path.name}:{node.lineno}: {node.value}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in events
                  and id(node) not in emitted]
    assert found == []
