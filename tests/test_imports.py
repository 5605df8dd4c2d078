"""The package's import graph: modules import each other at their tops only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import sparsebss

PACKAGE = Path(sparsebss.__file__).parent

#: The one import allowed inside a function: process pools load only when
#: ``monte_carlo`` is asked for more than one worker.
ALLOWED = {("evaluation.py", "monte_carlo", "concurrent.futures")}


#: Private names that one module still imports from another.  Each rule has
#: one home; a shrink that merges the modules can make them local.
PRIVATE_IMPORTS = {
    ("whitening.py", "signals", "_scale_error"),
    ("separation.py", "headings", "_accept"),
}


def function_imports(path):
    """(file name, function name, imported module) for each import inside a function."""
    found = set()
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Import):
                found.update((path.name, func.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                found.add((path.name, func.name, "." * node.level + (node.module or "")))
    return found


def test_no_import_inside_a_function():
    found = set().union(*(function_imports(path) for path in sorted(PACKAGE.glob("*.py"))))
    assert found - ALLOWED == set()


def private_imports(path):
    """(file name, module, name) for each ``from .module import _name`` in the file."""
    return {
        (path.name, node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_no_private_name_imported_from_another_module():
    found = set().union(*(private_imports(path) for path in sorted(PACKAGE.glob("*.py"))))
    assert found - PRIVATE_IMPORTS == set()


def test_cli_import_leaves_process_pools_unloaded():
    code = (
        "import sys, sparsebss.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"
