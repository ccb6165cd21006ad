"""Simulated in-memory cache (user-managed Redis on a VM).

The paper evaluates Redis as an alternative user-data store (Figure 8:
"FaaSKeeper with in-memory cache on par with self-hosted ZooKeeper") while
noting it is *not* serverless: it requires a provisioned VM (Table 2 marks
Redis reliability with an X) and therefore re-introduces a fixed daily cost.
We model sub-millisecond access latency and meter the VM cost separately so
the cost benchmarks can show the trade-off.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from ..sim.kernel import Environment, Event
from .calibration import CloudProfile
from .context import OpContext
from .expressions import clone, item_size_kb
from .faults import FaultInjector, draw_fault
from .pricing import CostMeter, VM_DAY_RATE

__all__ = ["InMemoryCache"]


class InMemoryCache:
    """A flat key -> value store with Redis-like latency."""

    def __init__(
        self,
        env: Environment,
        profile: CloudProfile,
        meter: CostMeter,
        rng,
        region: str = "us-east-1",
        vm_type: str = "t3.small",
        service_label: str = "cache",
    ) -> None:
        self.env = env
        self.profile = profile
        self.meter = meter
        self.rng = rng
        self.region = region
        self.vm_type = vm_type
        self.service_label = service_label
        self._data: Dict[str, Any] = {}
        #: Armed by deployments running a fault schedule (None = no draws).
        self.faults: Optional[FaultInjector] = None

    def _latency(self, ctx: OpContext, size_kb: float) -> float:
        value = self.profile.cache_rw.sample(self.rng, size_kb) * ctx.io_mult
        if ctx.region is not None and ctx.region != self.region:
            value += self.profile.inter_region_extra_ms
        return value

    @staticmethod
    def _size_kb(value: Any) -> float:
        if isinstance(value, (bytes, bytearray)):
            return len(value) / 1024.0
        if isinstance(value, str):
            return len(value.encode()) / 1024.0
        if isinstance(value, dict):
            return item_size_kb(value)
        return 0.05

    def set(self, ctx: OpContext, key: str, value: Any) -> Generator[Event, Any, None]:
        fault = draw_fault(self.faults, "set", mutating=True)
        if fault is not None:
            yield from self.faults.fire_before(fault, f"cache set {key}")
        yield self.env.timeout(self._latency(ctx, self._size_kb(value)))
        self._data[key] = clone(value)
        if fault is not None:
            self.faults.fire_after(fault, f"cache set {key}")

    def get(self, ctx: OpContext, key: str) -> Generator[Event, Any, Optional[Any]]:
        fault = draw_fault(self.faults, "get", mutating=False)
        if fault is not None:
            yield from self.faults.fire_before(fault, f"cache get {key}")
        value = self._data.get(key)
        yield self.env.timeout(self._latency(ctx, self._size_kb(value)))
        value = self._data.get(key)
        return clone(value)

    def delete(self, ctx: OpContext, key: str) -> Generator[Event, Any, None]:
        fault = draw_fault(self.faults, "delete", mutating=True)
        if fault is not None:
            yield from self.faults.fire_before(fault, f"cache delete {key}")
        yield self.env.timeout(self._latency(ctx, 0.0))
        self._data.pop(key, None)
        if fault is not None:
            self.faults.fire_after(fault, f"cache delete {key}")

    def daily_cost(self) -> float:
        """Fixed provisioning cost — the non-serverless part of this option."""
        return VM_DAY_RATE[self.vm_type]

    def __len__(self) -> int:
        return len(self._data)
