"""The runtime stays stdlib-only: every absolute import in the package
names a module of the standard library, and none is `dataclasses`, whose
import and decorators would cost every invocation about 14 ms.  Every
import sits at module level, where the cost of loading a module is paid
once and `tests/test_cold_start.py` sees it."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fuscat").glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_the_package_has_sources():
    assert len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_absolute_import_is_stdlib(path):
    outside = [name for name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_source_imports_dataclasses(path):
    assert "dataclasses" not in [name.split(".")[0] for name in _absolute_imports(path)]


def _function_body_imports(path: Path) -> list[str]:
    """`function:line` for each import inside a function or method body."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.setdefault(node.lineno, f"{fn.name}:{node.lineno}")
    return sorted(found.values())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_inside_a_function_body(path):
    assert _function_body_imports(path) == []
