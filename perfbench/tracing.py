"""Layer tracing of one job, patched in from outside the package.

    python3 perfbench/tracing.py SPANS.json TARGET [ARGS...]

runs ``TARGET.main(ARGS)`` (TARGET is ``swprg.cli`` or ``gen_job``) with the
package's layer boundaries wrapped, then writes SPANS.json and exits with
the job's exit code.  Each wrapped function is replaced where its callers
look it up (``lab`` imports ``acceptance_probability`` into its own
namespace, so that name is wrapped there too).

Calls of ordinary boundaries become spans (id, name, start, end, parent).
Hot calls, made once per seed, stream, step or program, only add to their
name's counters.  For every name the file holds calls, total seconds (calls
nested in a call of the same name not counted twice), self seconds (minus
the time of wrapped calls inside), work units and the seconds of the calls
that did work.  ``covered_s`` is the time spent inside any wrapped call, so
job wall time minus ``covered_s`` is the time outside every layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

# (module, attribute, record name, hot, work units of one call from its arguments)
BOUNDARIES = [
    ("swprg.primitives", "HashFamily.eval", "primitives.hash_eval", True, None),
    ("swprg.lab", "batch_evaluate", "lab.batch_evaluate", True,
     lambda args: len(args[1]) * args[0].n),
    ("swprg.lab", "acceptance_probability", "bp.acceptance_probability", True, None),
    ("swprg.bp", "acceptance_probability", "bp.acceptance_probability", True, None),
    ("swprg.lab", "hitting_check", "lab.hitting_check", True, None),
    ("swprg.lab", "fooling_error", "lab.fooling_error", False, None),
    ("swprg.lab", "run_hitting_report", "lab.run_hitting_report", False, None),
    ("swprg.paca", "accepting_steps_of_stream", "paca.accepting_steps_of_stream", True, None),
    ("swprg.paca", "step", "paca.step", True, None),
    ("swprg.paca", "exact_accept_probability", "paca.exact_accept_probability", False, None),
    ("swprg.paca", "_step_vector_distribution", "paca.step_vector_distribution", False, None),
    ("swprg.paca", "derandomize_two_sided", "paca.derandomize_two_sided", False, None),
]


class _Frame:
    __slots__ = ("name", "start", "child", "span_id")

    def __init__(self, name: str, start: float, span_id: Optional[int]):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    """Spans and per-name counters, kept in memory until :meth:`dump`."""

    ROOT = 0

    def __init__(self):
        self.spans: List[list] = []
        self.stats: Dict[str, Dict[str, float]] = {}
        self.covered = 0.0
        self.unpatched: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, hot: bool) -> _Frame:
        span_id = None
        if not hot:
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
        frame = _Frame(name, time.perf_counter(), span_id)
        self._stack().append(frame)
        return frame

    def exit(self, frame: _Frame, units: int) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        outermost = all(f.name != frame.name for f in stack)
        with self._lock:
            st = self.stats.setdefault(
                frame.name,
                {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "units": 0, "unit_seconds": 0.0},
            )
            st["calls"] += 1
            st["units"] += units
            if units:
                st["unit_seconds"] += duration
            st["self_seconds"] += duration - frame.child
            if outermost:
                st["seconds"] += duration
            if not stack:
                self.covered += duration
            if frame.span_id is not None:
                parent = next(
                    (f.span_id for f in reversed(stack) if f.span_id is not None), self.ROOT
                )
                self.spans.append([frame.span_id, frame.name, frame.start, end, parent])
        if stack:
            stack[-1].child += duration

    def wrap(self, fn: Callable, name: str, hot: bool, units=None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(name, hot)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame, units(args) if units else 0)

        return wrapper

    def wrap_expand_all(self, fn: Callable, cache) -> Callable:
        """Work units of an expansion: its seeds, counted once for the
        outermost call that was not answered from the expansion cache."""
        name = "generators.expand_all"

        @functools.wraps(fn)
        def wrapper(spec, *args, **kwargs):
            outermost = all(f.name != name for f in self._stack())
            misses = cache.cache_info().misses if cache is not None else None
            frame = self.enter(name, False)
            computed = False
            try:
                result = fn(spec, *args, **kwargs)
                computed = misses is None or cache.cache_info().misses > misses
                return result
            finally:
                self.exit(frame, (1 << spec.d) if outermost and computed else 0)

        return wrapper

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Time each item a generator function yields; one unit per item."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = self.enter(name, True)
                try:
                    item = next(it)
                except StopIteration:
                    self.exit(frame, 0)
                    return
                except BaseException:
                    self.exit(frame, 0)
                    raise
                self.exit(frame, 1)
                yield item

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, hot, units in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.unpatched.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(fn, name, hot, units))
        generators = importlib.import_module("swprg.generators")
        spec = generators.GeneratorSpec
        spec.expand_all = self.wrap_expand_all(
            spec.expand_all, getattr(generators, "_expand_all_cached", None)
        )
        lab = importlib.import_module("swprg.lab")
        lab.enumerate_swbp_family = self.wrap_generator(
            lab.enumerate_swbp_family, "lab.enumerate_swbp_family"
        )

    def dump(self, path: str, target: str, exit_code: int, start: float, end: float) -> None:
        payload = {
            "target": target,
            "exit": exit_code,
            "main_s": end - start,
            "covered_s": self.covered,
            "unpatched": self.unpatched,
            "stats": self.stats,
            "spans": [[self.ROOT, target + ".main", start, end, None]] + self.spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def main(argv: List[str]) -> int:
    spans_path, target, rest = argv[0], argv[1], argv[2:]
    module = importlib.import_module(target)
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    code = 1
    try:
        code = module.main(rest)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(spans_path, target, code, start, time.perf_counter())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
