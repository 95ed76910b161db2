"""The runtime is stdlib-only: every absolute import in the package names a
standard-library module, and importing the CLI loads no module that makes a
cold start slow."""

import ast
import os
import subprocess
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


def test_no_module_imports_dataclasses():
    """The value types are slotted classes on exactarith.Immutable: the
    dataclasses module would pull inspect, ast, dis and tokenize into every
    cold process."""
    imports = [
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name.partition(".")[0] == "dataclasses"
    ]
    assert imports == []


MODULES = ("fanodelta", "fanodelta.errors", "fanodelta.exactarith", "fanodelta.bundle",
           "fanodelta.cone", "fanodelta.angle", "fanodelta.calabi", "fanodelta.oracles",
           "fanodelta.cli")


def test_importing_the_cli_loads_every_module_and_neither_dataclasses_nor_inspect():
    """A fresh `import fanodelta.cli` loads all nine package modules, as the
    benchmark's import probe (perfbench/run.py, import_profile) requires, and
    none of the modules that make a cold start slow. ROADMAP item 12 relaxes
    the "all nine" half, together with that probe, when commands import
    their modules lazily."""
    script = (
        "import sys, fanodelta.cli; "
        "print(' '.join(sorted(name for name in sys.modules "
        "if name.partition('.')[0] in ('fanodelta', 'dataclasses', 'inspect'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.split() == sorted(MODULES)
