"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(fn):
    """``fn()``'s result and the peak of the memory traced while it ran, in
    bytes (numpy's arrays included), with tracemalloc started for the call
    and stopped after it."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
