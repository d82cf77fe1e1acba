"""Peak-allocation measurement for the tests that pin a removed copy."""

import tracemalloc


def traced_peak(run) -> int:
    """The peak bytes of Python allocations while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
