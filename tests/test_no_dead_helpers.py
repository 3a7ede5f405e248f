"""Every function, method, class and module-level name of the package is
used by the package: a helper that only the tests call is a second route
and belongs in `tests/`.  A public name counts as used only when code
outside `__init__.py` names it; re-exporting it is not a use."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "fuscat").glob("*.py"))
TREES = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}

# public routes no code in src/ calls, kept because tests/test_acceptance.py
# checks its criteria through them
ACCEPTANCE_ONLY = {"double_cosets", "stabilizer_intersection", "scan_dimension_witnesses"}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree: ast.AST, keep) -> list[str]:
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in ast.walk(tree) if isinstance(node, defs) and keep(node.name)]


def _private_definitions(tree: ast.AST) -> list[str]:
    return _definitions(tree, _is_private)


def _public_definitions(tree: ast.AST) -> list[str]:
    return _definitions(tree, lambda name: not name.startswith("_"))


def _references(trees) -> set[str]:
    """Every name and attribute read or written in the trees."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _module_assignments(tree: ast.Module) -> list[str]:
    """The non-dunder names that the module's own statements assign."""
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets.append(node.target)
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _reads(trees) -> set[str]:
    """Every name loaded, and every attribute, in the trees."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


REFERENCES = _references(TREES.values())
OUTSIDE_INIT = [tree for path, tree in TREES.items() if path.name != "__init__.py"]
USES = _references(OUTSIDE_INIT)
READS = _reads(OUTSIDE_INIT)


def test_the_package_defines_private_helpers():
    assert any(_private_definitions(tree) for tree in TREES.values())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_helper_is_referenced_in_the_package(path):
    assert [name for name in _private_definitions(TREES[path]) if name not in REFERENCES] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_public_name_is_used_in_the_package(path):
    unused = [name for name in _public_definitions(TREES[path]) if name not in USES]
    assert [name for name in unused if name not in ACCEPTANCE_ONLY] == []


def test_the_package_assigns_module_names():
    assert any(_module_assignments(tree) for tree in TREES.values())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_name_is_read_in_the_package(path):
    assert [name for name in _module_assignments(TREES[path]) if name not in READS] == []


def test_the_acceptance_only_names_are_unused_and_imported_by_the_acceptance_tests():
    defined = {name for tree in TREES.values() for name in _public_definitions(tree)}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    imported = {alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert ACCEPTANCE_ONLY <= defined - USES
    assert ACCEPTANCE_ONLY <= imported
