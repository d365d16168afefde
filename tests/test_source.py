"""Properties of the package source itself."""

import ast
from pathlib import Path

import systolic

SOURCES = sorted(Path(systolic.__file__).parent.glob("*.py"))


def test_no_function_imports_anything():
    # modules import each other only at the top, so an import cycle fails
    # at import time instead of hiding behind a first call
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert SOURCES and not found
