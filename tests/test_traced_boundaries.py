"""The benchmark's per-layer trace wraps package functions by name
(``perfbench/tracing.py``); every name it wraps must still exist, or a
renamed layer would silently drop out of the trace."""

import importlib
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
