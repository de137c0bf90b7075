"""Static hygiene of the package, read with the stdlib ``ast`` only: every
module-level import is referenced, and every local a function assigns is
read (names starting with ``_`` are exempt)."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "swprg").glob("*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def module_imports(tree: ast.Module):
    """The names imported at module level, also under a module-level
    ``if`` or ``try`` (such as ``if TYPE_CHECKING:``); ``__future__`` aside."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack += node.body + node.orelse + getattr(node, "finalbody", [])
            stack += [s for handler in getattr(node, "handlers", []) for s in handler.body]
        elif isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def unused_imports(tree: ast.Module):
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(module_imports(tree)) - referenced)


def own_scope(func):
    """The nodes of ``func``'s body outside nested functions, classes and lambdas."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(tree: ast.Module):
    """``function.name`` for every local a function assigns and nothing in it
    (nested functions included) reads."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [node for node in own_scope(func) if isinstance(node, ast.Name)]
        stored = {node.id for node in names if isinstance(node.ctx, ast.Store)}
        shared = {
            name for node in own_scope(func)
            if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names
        }
        read = {
            node.id for node in ast.walk(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found += [
            f"{func.name}.{name}" for name in sorted(stored - read - shared)
            if not name.startswith("_")
        ]
    return found


def test_checks_find_what_they_look_for():
    source = '''
from __future__ import annotations
import json
from typing import TYPE_CHECKING, List
if TYPE_CHECKING:
    import numpy as np
    import random as rng

def f(xs: List[int]) -> np.ndarray:
    index = {}
    total, _skip = 0, 1
    for i, x in enumerate(xs):
        total += x
    def inner():
        return total
    return inner
'''
    tree = ast.parse(source)
    assert unused_imports(tree) == ["json", "rng"]
    assert dead_locals(tree) == ["f.i", "f.index"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_import_is_referenced(path):
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_assigned_local_is_read(path):
    assert dead_locals(ast.parse(path.read_text())) == []
