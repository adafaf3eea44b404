"""The runtime stays pure standard library: no module of the package imports anything else."""

import ast
import importlib
import re
import subprocess
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


def test_import_leaves_the_process_pool_unloaded():
    # Only a multi-process bench run needs concurrent.futures, about 30 ms of import time.
    code = "import sys, rankprice; print('concurrent.futures' in sys.modules)"
    src = str(PACKAGE.parent)
    out = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "False\n"


_ROLE = re.compile(r":(?:func|meth|attr|class):`~?([\w.]+)")
_PRIVATE = re.compile(r"``(_\w+(?:\.\w+)*)")


def _resolves(scopes, target):
    """Whether the dotted ``target`` names something in one of ``scopes`` or is a ``rankprice.*`` path."""
    parts = target.split(".")
    if parts[0] == "rankprice":
        for cut in range(len(parts), 0, -1):
            try:
                scopes = [importlib.import_module(".".join(parts[:cut]))]
            except ImportError:
                continue
            parts = parts[cut:]
            break
    for obj in scopes:
        for part in parts:
            if not hasattr(obj, part):
                break
            obj = getattr(obj, part)
        else:
            return True
    return False


def _docstrings(node, scopes):
    """``(docstring, scopes)`` for ``node`` and each definition under it.

    ``scopes`` are the namespaces a name in the docstring may come from,
    innermost first: the enclosing classes, then the module.
    """
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        yield ast.get_docstring(node) or "", scopes
    for child in ast.iter_child_nodes(node):
        inner = scopes
        if isinstance(child, ast.ClassDef) and hasattr(scopes[0], child.name):
            inner = [getattr(scopes[0], child.name), *scopes]
        yield from _docstrings(child, inner)


def test_docstring_references_resolve():
    # Every :func:/:meth:/:attr:/:class: target and every double-backticked
    # private name in a docstring names something that exists, in the
    # enclosing classes, the module or as a rankprice.* path, so a rename or
    # a removal cannot leave a docstring pointing at nothing.
    checked, dangling = 0, []
    for path in sorted(PACKAGE.rglob("*.py")):
        name = ".".join(("rankprice", *path.relative_to(PACKAGE).with_suffix("").parts))
        module = importlib.import_module(name.removesuffix(".__init__"))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for doc, scopes in _docstrings(tree, [module]):
            for target in _ROLE.findall(doc) + _PRIVATE.findall(doc):
                checked += 1
                if not _resolves(scopes, target):
                    dangling.append(f"{path.relative_to(PACKAGE)}: {target}")
    assert dangling == [] and checked > 10
