"""Shared memory-footprint probe for the session-plane memory tests."""

import gc
import tracemalloc
from typing import Any, Callable, Tuple


def bytes_and_blocks_per(n: int, build: Callable[[int], Any],
                         what: str = "idle session"
                         ) -> Tuple[float, float, float]:
    """Traced bytes, memory blocks and GC-tracked objects that ``build(n)``
    leaves allocated, per unit.  Whatever ``build`` returns is kept alive
    across the measurement; garbage is collected first, so cycles do not
    count.  GC-tracked objects are what every full collection walks.  The
    line it prints puts the numbers in every CI log."""
    gc.collect()
    tracked = len(gc.get_objects())
    tracemalloc.start()
    try:
        kept = build(n)
        gc.collect()
        tracked = len(gc.get_objects()) - tracked
        stats = tracemalloc.take_snapshot().statistics("filename")
    finally:
        tracemalloc.stop()
    del kept
    per_bytes = sum(stat.size for stat in stats) / n
    per_blocks = sum(stat.count for stat in stats) / n
    per_objects = tracked / n
    print(f"{what}: {per_bytes:.0f} B, {per_blocks:.1f} blocks, "
          f"{per_objects:.1f} GC-tracked objects")
    return per_bytes, per_blocks, per_objects


def peak_bytes_per(n: int, run: Callable[[], Any], what: str) -> float:
    """Traced bytes at the peak of ``run()`` above what was allocated before
    it, per unit: the transient cost of work whose result is dropped (a
    sweep's scan result, its ping order, its timer train).  Garbage is
    collected first, so earlier cycles do not count."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_bytes = peak / n
    print(f"{what}: {per_bytes:.0f} B peak")
    return per_bytes
