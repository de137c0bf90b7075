"""Static hygiene of the package, read with the stdlib ``ast`` only: every
module-level import is referenced, no module imports ``hashlib`` at module
level, and every local a function assigns is read (names starting with ``_``
are exempt).  One more check builds generator nodes: no class attribute hides
a value a node derives at construction."""

import ast
import inspect
import json
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

from swprg.generators import Exhaustive, generator_from_json

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "swprg").glob("*.py"))
GOLDEN = Path(__file__).with_name("golden_node_json.txt")
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def module_import_nodes(tree: ast.Module):
    """The import statements at module level, also under a module-level
    ``if`` or ``try`` (such as ``if TYPE_CHECKING:``)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack += node.body + node.orelse + getattr(node, "finalbody", [])
            stack += [s for handler in getattr(node, "handlers", []) for s in handler.body]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def module_imports(tree: ast.Module):
    """The names imported at module level; ``__future__`` aside."""
    for node in module_import_nodes(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def module_level_hashlib(tree: ast.Module):
    """The line of every module-level ``import hashlib`` or ``from hashlib
    import ...``: hashlib loads OpenSSL's libcrypto, about 3.6 MB of
    resident memory, into every process that imports the module."""
    found = []
    for node in module_import_nodes(tree):
        names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module or ""]
        if "hashlib" in {name.split(".")[0] for name in names}:
            found.append(node.lineno)
    return sorted(found)


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
    assert module_level_hashlib(tree) == []
    source = '''
import hashlib as h
try:
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

def digest(data):
    from hashlib import md5
    return h, sha256, md5
'''
    assert module_level_hashlib(ast.parse(source)) == [2, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_import_is_referenced(path):
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_hashlib_at_module_level(path):
    assert module_level_hashlib(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_assigned_local_is_read(path):
    assert dead_locals(ast.parse(path.read_text())) == []


def hidden_values(node):
    """The values ``node`` derived into its ``__dict__`` (every key beyond its
    dataclass fields) that a property or another data descriptor of its
    class hides from every read."""
    derived = set(vars(node)) - {f.name for f in fields(node)}
    return sorted(
        key for key in derived
        if inspect.isdatadescriptor(inspect.getattr_static(type(node), key, None))
    )


def test_hidden_values_finds_a_shadowing_property():
    @dataclass(frozen=True)
    class Shadowed(Exhaustive):
        @property
        def d(self):
            return 0

    node = Shadowed(1, 3)
    assert (vars(node)["d"], node.d) == (3, 0)
    assert hidden_values(node) == ["d"]


def test_no_derived_generator_value_is_hidden():
    for line in GOLDEN.read_text().splitlines():
        node = generator_from_json(json.loads(line))
        assert "d" in vars(node), line  # every node derives its seed length
        assert hidden_values(node) == [], line
