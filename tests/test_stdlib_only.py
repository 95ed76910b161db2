"""The runtime is stdlib-only: every absolute import in the package names a
standard-library module."""

import ast
import sys
from pathlib import Path

import fanodelta

PACKAGE = Path(fanodelta.__file__).resolve().parent


def absolute_imports(tree: ast.AST):
    """The module name of every absolute import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_from_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = [
        (path.name, name)
        for path in sources
        for name in absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
