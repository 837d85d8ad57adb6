"""Peak-memory measurement for the memory tests."""

import gc
import tracemalloc


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes `tracemalloc` saw while it ran.

    A full collection first empties the interpreter's free lists, so the
    reading does not depend on what ran before.
    """
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
