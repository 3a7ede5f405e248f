"""Every private function, method and class of the package is used by the
package: a helper that only the tests call is a second route and belongs
in `tests/`."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fuscat").glob("*.py"))
TREES = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree: ast.AST) -> list[str]:
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in ast.walk(tree) if isinstance(node, defs) and _is_private(node.name)]


# every name and attribute read or written anywhere in the package
REFERENCES = {node.id if isinstance(node, ast.Name) else node.attr
              for tree in TREES.values() for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute))}


def test_the_package_defines_private_helpers():
    assert any(_private_definitions(tree) for tree in TREES.values())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_helper_is_referenced_in_the_package(path):
    assert [name for name in _private_definitions(TREES[path]) if name not in REFERENCES] == []
