"""The benchmark's per-layer trace wraps package functions by name
(``perfbench/tracing.py``); every name it wraps must still exist, or a
renamed layer would silently drop out of the trace.  Likewise every package
name a benchmark script imports or reads must still resolve."""

import ast
import importlib
import inspect
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_traced_boundary_resolves():
    boundaries = _load_tracing().BOUNDARIES
    assert boundaries
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, *_ in boundaries
        if not callable(_resolve(module_name, attr))
    ]
    # wrapped by Tracer.install outside the list
    for module_name, attr in (
        ("swprg.generators", "GeneratorSpec.expand_all"),
        ("swprg.generators", "_expand_all_cached"),
        ("swprg.lab", "enumerate_swbp_family"),
    ):
        if not callable(_resolve(module_name, attr)):
            missing.append(f"{module_name}.{attr}")
    assert not missing
    # Tracer.wrap_generator times it item by item, so it must stay a generator
    assert inspect.isgeneratorfunction(importlib.import_module("swprg.lab").enumerate_swbp_family)


PERFBENCH = TRACING.parent
MODULES = ("hsg", "generators", "paca", "lab", "bp")


def _package_names(path):
    """(module, name) for every ``from swprg... import name`` in the file
    and every read of ``name`` off one of ``MODULES``, say ``hsg.name``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "swprg":
            yield from ((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in MODULES):
            yield f"swprg.{node.value.id}", node.attr


def test_every_package_name_the_benchmark_uses_resolves():
    # perfbench/ may not change with the package, and some of its scripts
    # (setup_probe.py, gen_job.py) run only under the benchmark, so a
    # deleted name would otherwise fail there first
    seen, missing = set(), []
    for path in sorted(PERFBENCH.glob("*.py")):
        for module_name, name in _package_names(path):
            seen.add((module_name, name))
            owner = importlib.import_module(module_name)
            if not (hasattr(owner, name)
                    or importlib.util.find_spec(f"{module_name}.{name}") is not None):
                missing.append(f"{path.name}: {module_name}.{name}")
    # both forms are seen: an import (workloads.py), a read (test_perfbench.py)
    assert {("swprg.hsg", "hsg_from_json"), ("swprg.hsg", "build_swbp_hsg")} <= seen
    assert not missing
