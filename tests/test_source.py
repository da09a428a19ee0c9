"""The package states its invariants as typed errors, never as asserts,
so that python -O strips no check."""

import ast
from pathlib import Path

import quiverump

SOURCES = sorted(Path(quiverump.__file__).resolve().parent.glob("*.py"))


def test_package_has_no_assert():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Assert)
                or isinstance(node, ast.Name) and node.id == "AssertionError"
                or isinstance(node, ast.Attribute) and node.attr == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES
    assert found == []
