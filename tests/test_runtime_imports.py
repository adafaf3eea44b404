"""The runtime stays pure standard library: no module of the package imports anything else."""

import ast
import sys
from pathlib import Path

import rankprice

PACKAGE = Path(rankprice.__file__).parent


def test_every_absolute_import_is_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.relative_to(PACKAGE)}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_every_imported_name_is_read():
    # ``__init__.py`` imports to re-export; the ``__future__`` import acts on
    # the compiler, not through a name.
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [f"{path.relative_to(PACKAGE)}: {name}" for name in imported if name not in read]
    assert unread == []


def _open_names(node, where):
    """``where`` for each use of the name ``open`` under ``node``, by innermost function."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        if isinstance(child, ast.Name) and child.id == "open":
            yield where
        yield from _open_names(child, inner)


def test_files_are_opened_only_by_the_model_reader_and_writer():
    # One way in and one way out to disk: ``model.read_json`` and ``model.write_text``.
    openers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        openers.update((path.name, where) for where in _open_names(tree, None))
    assert sorted(openers) == [("model.py", "read_json"), ("model.py", "write_text")]
