"""Shared helpers for the benchmark harnesses in ``benchmarks/``.

Each bench regenerates one of the paper's tables or figures: it runs the
simulation, prints the same rows/series the paper reports, and asserts the
qualitative *shape* (who wins, rough factors, crossovers).  These helpers
keep the benches short and uniform.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..cloud import Cloud
from ..faaskeeper import FaaSKeeperConfig, FaaSKeeperService
from ..zookeeper import ZooKeeperDeployment, deploy_zookeeper
from .stats import LatencySummary, summarize

__all__ = [
    "deploy_fk",
    "timed",
    "sweep_write_latency",
    "sweep_read_latency",
    "collect_write_costs",
    "keep_segments",
    "segment_summary",
    "SIZES_LABELS",
]

SIZES_LABELS = {
    4: "4B", 128: "128B", 256: "256B", 512: "512B",
    1024: "1kB", 2048: "2kB", 4096: "4kB",
    64 * 1024: "64kB", 128 * 1024: "128kB", 250 * 1024: "250kB",
    400 * 1024: "400kB",
}


def label(size_bytes: int) -> str:
    return SIZES_LABELS.get(size_bytes, f"{size_bytes}B")


def deploy_fk(seed: int = 0, provider: str = "aws", **config
              ) -> Tuple[Cloud, FaaSKeeperService, Any]:
    """Cloud + service + connected client in one call."""
    cloud = Cloud.aws(seed=seed) if provider == "aws" else Cloud.gcp(seed=seed)
    service = FaaSKeeperService.deploy(cloud, FaaSKeeperConfig(**config))
    client = service.connect()
    return cloud, service, client


def timed(cloud: Cloud, op: Callable[[], Any]) -> float:
    """Virtual-clock duration of one synchronous client operation."""
    t0 = cloud.now
    op()
    return cloud.now - t0


def sweep_write_latency(client, cloud, sizes: Sequence[int],
                        reps: int = 30, path: str = "/bench"
                        ) -> Dict[int, LatencySummary]:
    """set_data latency per node size (the Figure 9/11/12 x-axis)."""
    client.create(path, b"")
    out: Dict[int, LatencySummary] = {}
    for size in sizes:
        payload = b"x" * size
        samples = [timed(cloud, lambda: client.set_data(path, payload))
                   for _ in range(reps)]
        out[size] = summarize(samples)
    return out


def sweep_read_latency(client, cloud, sizes: Sequence[int],
                       reps: int = 50, path: str = "/bench"
                       ) -> Dict[int, LatencySummary]:
    """get_data latency per node size (the Figure 8 x-axis)."""
    client.create(path, b"")
    out: Dict[int, LatencySummary] = {}
    for size in sizes:
        client.set_data(path, b"x" * size)
        samples = [timed(cloud, lambda: client.get_data(path))
                   for _ in range(reps)]
        out[size] = summarize(samples)
    return out


def collect_write_costs(service, client, cloud, size: int,
                        reps: int = 25, path: str = "/cost"
                        ) -> Dict[str, float]:
    """Metered cost per write, split by category, scaled to 100 K requests
    (the cost bars of Figures 9 and 11)."""
    client.create(path, b"")
    cloud.run(until=cloud.now + 5_000)  # drain leader/watch work
    before = cloud.meter.by_service()
    payload = b"x" * size
    for _ in range(reps):
        client.set_data(path, payload)
    cloud.run(until=cloud.now + 5_000)
    delta = cloud.meter.delta(before)
    scale = 100_000 / reps
    split = {
        "queue": sum(v for k, v in delta.items() if k.startswith("sqs")) * scale,
        "system_store": delta.get("dynamodb:system", 0.0) * scale,
        "user_store": (delta.get("dynamodb:user", 0.0)
                       + delta.get("s3", 0.0)) * scale,
        "follower": delta.get("fn:fk-follower", 0.0) * scale,
        "leader": delta.get("fn:fk-leader", 0.0) * scale,
    }
    split["total"] = sum(split.values())
    return split


def keep_segments(fn) -> Dict[str, List[float]]:
    """Keep ``fn``'s timing probes from now on (name -> samples, in order)
    for exact percentiles, chaining the observer already attached."""
    samples: Dict[str, List[float]] = defaultdict(list)
    chained = fn.on_segment

    def on_segment(segment: str, elapsed_ms: float) -> None:
        samples[segment].append(elapsed_ms)
        if chained is not None:
            chained(segment, elapsed_ms)

    fn.on_segment = on_segment
    return samples


def segment_summary(samples, segments: Iterable[str]) -> Dict[str, LatencySummary]:
    """Summaries of the probes :func:`keep_segments` kept (Fig. 10, Table 3)."""
    return {name: summarize(samples[name]) for name in segments
            if samples.get(name)}
