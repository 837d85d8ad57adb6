"""Peak-memory measurement for the memory tests."""

import tracemalloc


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes `tracemalloc` saw while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
