"""Shared memory-footprint probe for the session-plane memory tests."""

import gc
import tracemalloc
from typing import Any, Callable, Tuple


def bytes_and_blocks_per(n: int, build: Callable[[int], Any],
                         what: str = "idle session") -> Tuple[float, float]:
    """Traced bytes and memory blocks that ``build(n)`` leaves allocated,
    per unit.  Whatever ``build`` returns is kept alive across the
    measurement; garbage is collected first, so cycles do not count.  The
    line it prints puts the number in every CI log."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build(n)
        gc.collect()
        stats = tracemalloc.take_snapshot().statistics("filename")
    finally:
        tracemalloc.stop()
    del kept
    per_bytes = sum(stat.size for stat in stats) / n
    per_blocks = sum(stat.count for stat in stats) / n
    print(f"{what}: {per_bytes:.0f} B, {per_blocks:.1f} blocks")
    return per_bytes, per_blocks
