"""What BENCHMARK.json declares, and the few facts about metrics it cannot hold.

BENCHMARK.json is the catalogue: names, units, directions and bounds are read
from it, never repeated here.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_WALL_CLOCK = frozenset({
    "setup_s", "wall_ops_per_s", "peak_rss_mb", "trace_overhead_x",
    "faaskeeper.service.registration_wall_s",
})


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def is_wall_clock(name: str) -> bool:
    """Wall-clock metrics vary run to run; every other metric is on the
    virtual clock or an exact count and repeats bit for bit per (code, seed)."""
    return name in _WALL_CLOCK or name.endswith(".wall_share")


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


_OPS = ("paper-rw", "scaled-rw", "read-cached", "read-direct")
_WRITERS = ("paper-rw", "scaled-rw", "read-cached")
_INLINE_WRITERS = ("paper-rw", "read-cached")

#: Per-layer metrics that exist on some workloads only, by name prefix (the
#: longest matching prefix wins).  A metric with no entry exists on all five.
#: Where one does not exist the ledger leaves it out and a contract run, which
#: must print every declared name, prints 0.
ONLY_ON: Dict[str, Tuple[str, ...]] = {
    "faaskeeper.client.read_": _OPS,
    "faaskeeper.client.write_": _WRITERS,
    "faaskeeper.swarm.": ("swarm",),
    "faaskeeper.service.registration_": ("swarm",),
    "faaskeeper.service.sessions_live_end": ("swarm",),
    "faaskeeper.cache.hit_ratio": ("read-cached",),
    "faaskeeper.cache.evictions_per_kop": ("read-cached",),
    "faaskeeper.cache.invalidations_per_kop": ("read-cached",),
    "faaskeeper.distributor.update_user_mean_ms": ("scaled-rw",),
    "faaskeeper.distributor.watch_query_mean_ms": ("scaled-rw",),
    "faaskeeper.distributor.busy_mean_ms": ("scaled-rw",),
    "faaskeeper.distributor.coalesced_share": ("scaled-rw",),
    "faaskeeper.follower.": (*_WRITERS, "swarm"),
    "faaskeeper.follower.ops_per_invocation": _WRITERS,
    "faaskeeper.leader.": (*_WRITERS, "swarm"),
    "faaskeeper.leader.ops_per_invocation": _WRITERS,
    "faaskeeper.leader.distribute_mean_ms": ("scaled-rw",),
    "faaskeeper.leader.update_user_mean_ms": (*_INLINE_WRITERS, "swarm"),
    "faaskeeper.leader.watch_query_mean_ms": (*_INLINE_WRITERS, "swarm"),
}
_EVERYWHERE_SUFFIXES = (".wall_share", ".calls_per_op")


def applies_to(metric: str, workload: str) -> bool:
    if metric.endswith(_EVERYWHERE_SUFFIXES):
        return True
    matches = [prefix for prefix in ONLY_ON if metric.startswith(prefix)]
    return not matches or workload in ONLY_ON[max(matches, key=len)]
