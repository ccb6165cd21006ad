"""Shared memory-footprint probe for the session-plane memory tests."""

import gc
import tracemalloc
from typing import Any, Callable, List, NamedTuple, Tuple

#: How many allocation sites a footprint names.
TOP_SITES = 5


class Footprint(NamedTuple):
    """What ``build(n)`` left allocated, per unit."""

    size: float  # bytes
    blocks: float
    objects: float
    #: The ``TOP_SITES`` largest allocation sites: ``("file:line", bytes)``.
    sites: List[Tuple[str, float]]

    def top(self) -> str:
        """The sites as one line, for an assertion message: a regression
        names the line that allocates, not only a total."""
        return "; ".join(f"{site} {size:.0f} B" for site, size in self.sites)


def _site(stat: tracemalloc.Statistic) -> str:
    frame = stat.traceback[0]
    path = frame.filename
    # From the package root down, so a site reads the same in any checkout.
    for root in ("/repro/", "/tests/"):
        if root in path:
            path = path[path.rindex(root) + 1:]
            break
    return f"{path}:{frame.lineno}"


def bytes_and_blocks_per(n: int, build: Callable[[int], Any],
                         what: str = "idle session") -> Footprint:
    """Traced bytes, memory blocks and GC-tracked objects that ``build(n)``
    leaves allocated, per unit, and the largest allocation sites.
    Whatever ``build`` returns is kept alive across the measurement;
    garbage is collected first, so cycles do not count.  GC-tracked objects
    are what every full collection walks.  The lines it prints put the
    numbers in every CI log."""
    gc.collect()
    tracked = len(gc.get_objects())
    tracemalloc.start()
    try:
        kept = build(n)
        gc.collect()
        tracked = len(gc.get_objects()) - tracked
        stats = tracemalloc.take_snapshot().statistics("lineno")
    finally:
        tracemalloc.stop()
    del kept
    footprint = Footprint(
        size=sum(stat.size for stat in stats) / n,
        blocks=sum(stat.count for stat in stats) / n,
        objects=tracked / n,
        sites=[(_site(stat), stat.size / n) for stat in stats[:TOP_SITES]])
    print(f"{what}: {footprint.size:.0f} B, {footprint.blocks:.1f} blocks, "
          f"{footprint.objects:.1f} GC-tracked objects")
    print(f"{what}, top sites: {footprint.top()}")
    return footprint


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
