"""Fail on dead work in the package: locals that are assigned but never
read, imports that are never used, and functions that nothing calls.

    python3 tools/unread_names.py [FILE ...]

With no arguments it checks ``src/reductions/*.py`` except ``__init__.py``,
whose imports are the package's public names.  A local is a name bound
inside a function (by assignment, augmented assignment, a ``for`` or
``with`` target, a walrus or an ``except ... as``) that no code of that
function, nested functions and comprehensions included, reads.  Names
starting with an underscore are deliberate placeholders and are skipped,
as are names declared ``global`` or ``nonlocal``.  An import is unused when
no code of its module reads the name it binds.  A function is dead when
it is a module-level function or a non-dunder method of a module-level
class whose name no code under ``src/``, ``perfbench/`` or ``tools/``
refers to, outside its own body, as a read name, an attribute or an
imported name.  A reference from ``tests/`` does not count: a function
that only tests call is dead code that the tests keep alive.  Prints one
line per finding and exits 1 when there is any.
"""

from __future__ import annotations

import ast
import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
SEARCHED = ("src", "perfbench", "tools")  # where a function may be called from
# reached by tests alone, until the exact Laurent polynomials of ROADMAP
# item 1 delete the truncation model it belongs to
TEST_ONLY = {"truncate"}


def _loads(node):
    """Every name read anywhere under ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _own_nodes(func):
    """The nodes of ``func``'s body that belong to its own scope: nested
    function and class bodies are left out."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, SCOPES + (ast.ClassDef,)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _bound_locals(func):
    """(name, line) of every local ``func`` binds in its own scope."""
    declared = set()
    out = []
    for node in _own_nodes(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.append((node.name, node.lineno))
    return [(name, line) for name, line in out if not name.startswith("_") and name not in declared]


def unread_locals(tree):
    for func in ast.walk(tree):
        if not isinstance(func, SCOPES):
            continue
        read = _loads(func)
        for name, line in _bound_locals(func):
            if name not in read:
                yield line, f"local {name!r} in {getattr(func, 'name', 'lambda')} is never read"


def unused_imports(tree):
    read = _loads(tree)
    # a dotted read such as ``pkg.mod.attr`` starts with a load of ``pkg``
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                yield node.lineno, f"import {name!r} is never used"


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _functions(tree):
    """Every module-level function and every non-dunder method of a
    module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, SCOPES) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item
        elif isinstance(node, SCOPES):
            yield node


def _references(tree):
    """(name, line) of every read name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def reference_index():
    """name -> [(path, line)] over every Python file of ``SEARCHED``."""
    index = {}
    for top in SEARCHED:
        for path in glob.glob(os.path.join(ROOT, top, "**", "*.py"), recursive=True):
            for name, line in _references(_parse(path)):
                index.setdefault(name, []).append((os.path.abspath(path), line))
    return index


def dead_functions(tree, path, index):
    path = os.path.abspath(path)
    for func in _functions(tree):
        if func.name in TEST_ONLY:
            continue
        own = range(func.lineno, func.end_lineno + 1)
        if all(p == path and line in own for p, line in index.get(func.name, ())):
            yield func.lineno, f"function {func.name!r} is never called"


def check(path, index):
    tree = _parse(path)
    findings = sorted(
        list(unread_locals(tree)) + list(unused_imports(tree)) + list(dead_functions(tree, path, index))
    )
    return [f"{os.path.relpath(path, ROOT)}:{line}: {msg}" for line, msg in findings]


def main(argv):
    paths = argv or sorted(
        p for p in glob.glob(os.path.join(ROOT, "src", "reductions", "*.py"))
        if os.path.basename(p) != "__init__.py"
    )
    index = reference_index()
    findings = [line for path in paths for line in check(path, index)]
    for line in findings:
        print(line)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
