"""Simulated object store (S3 / Cloud Storage).

Models the properties the paper's storage decision rests on (Section 4.2):

* strong read-after-write consistency ([24] in the paper);
* whole-object writes only — no partial updates (Requirement #6 discusses
  the cost of this), so updating a node's metadata re-uploads all data;
* flat per-operation billing: writes 12.5x the price of reads (Figure 4a);
* latency linear in object size with an inter-region penalty (Figure 4b).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from ..sim.kernel import Environment, Event
from . import sanitize
from .calibration import CloudProfile
from .context import OpContext
from .errors import NoSuchBucket, NoSuchObject
from .expressions import clone
from .faults import FaultInjector, draw_fault
from .pricing import CostMeter

__all__ = ["ObjectStore"]


class ObjectStore:
    """Named buckets of key -> (bytes-like payload, metadata dict)."""

    def __init__(
        self,
        env: Environment,
        profile: CloudProfile,
        meter: CostMeter,
        rng,
        region: str = "us-east-1",
        service_label: str = "object",
    ) -> None:
        self.env = env
        self.profile = profile
        self.meter = meter
        self.rng = rng
        self.region = region
        self.service_label = service_label
        self._buckets: Dict[str, Dict[str, tuple[Any, Dict[str, Any]]]] = {}
        #: ``FK_SANITIZE=1`` only: (bucket, key) -> a clone of the metadata stored.
        self._snapshots: Optional[Dict[tuple, Any]] = {} if sanitize.enabled() else None
        #: Armed by deployments running a fault schedule (None = no draws).
        self.faults: Optional[FaultInjector] = None

    # ------------------------------------------------------------ buckets
    def create_bucket(self, name: str) -> None:
        if name in self._buckets:
            raise ValueError(f"bucket {name!r} already exists")
        self._buckets[name] = {}

    def _bucket(self, name: str) -> Dict[str, tuple[Any, Dict[str, Any]]]:
        try:
            return self._buckets[name]
        except KeyError:
            raise NoSuchBucket(name) from None

    def raw(self, bucket: str, key: str) -> Optional[Any]:
        """Zero-latency payload peek for tests."""
        entry = self._bucket(bucket).get(key)
        return None if entry is None else entry[0]

    def _checked(self, bucket: str, key: str) -> Optional[tuple]:
        entry = self._bucket(bucket).get(key)
        if entry is not None and self._snapshots is not None:
            sanitize.check_frozen(f"metadata of {bucket}/{key}", entry[1],
                                  self._snapshots.get((bucket, key)))
        return entry

    # ------------------------------------------------------------ helpers
    @staticmethod
    def payload_kb(payload: Any) -> float:
        if payload is None:
            return 0.0
        if isinstance(payload, (bytes, bytearray, memoryview)):
            return len(payload) / 1024.0
        if isinstance(payload, str):
            return len(payload.encode()) / 1024.0
        return 0.25  # opaque metadata-only objects

    def _latency(self, ctx: OpContext, model, size_kb: float) -> float:
        value = model.sample(self.rng, size_kb) * ctx.io_mult
        if ctx.region is not None and ctx.region != self.region:
            value += self.profile.inter_region_extra_ms
            value += self.profile.inter_region_per_kb_ms * size_kb
        return value

    # ------------------------------------------------------------ operations
    def put_object(
        self,
        ctx: OpContext,
        bucket: str,
        key: str,
        payload: Any,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Generator[Event, Any, None]:
        """Whole-object write (there is no partial-update path, Req. #6)."""
        objects = self._bucket(bucket)
        fault = draw_fault(self.faults, "put_object", mutating=True)
        if fault is not None:
            yield from self.faults.fire_before(fault, f"put_object {bucket}/{key}")
        size_kb = self.payload_kb(payload)
        yield self.env.timeout(self._latency(ctx, self.profile.obj_write, size_kb))
        self._checked(bucket, key)
        objects[key] = (payload, clone(metadata or {}))
        if self._snapshots is not None:
            self._snapshots[bucket, key] = clone(metadata or {})
        self.meter.charge(ctx.payer or self.service_label, "obj_write",
                          self.profile.prices.object_write_cost(size_kb))
        if fault is not None:
            self.faults.fire_after(fault, f"put_object {bucket}/{key}")

    def get_object(
        self,
        ctx: OpContext,
        bucket: str,
        key: str,
    ) -> Generator[Event, Any, tuple[Any, Dict[str, Any]]]:
        """Strongly consistent read; raises :class:`NoSuchObject` if absent."""
        objects = self._bucket(bucket)
        fault = draw_fault(self.faults, "get_object", mutating=False)
        if fault is not None:
            yield from self.faults.fire_before(fault, f"get_object {bucket}/{key}")
        entry = objects.get(key)
        size_kb = self.payload_kb(entry[0]) if entry else 0.0
        yield self.env.timeout(self._latency(ctx, self.profile.obj_read, size_kb))
        self.meter.charge(ctx.payer or self.service_label, "obj_read",
                          self.profile.prices.object_read_cost(size_kb))
        entry = self._checked(bucket, key)
        if entry is None:
            raise NoSuchObject(f"{bucket}/{key}")
        return entry

    def delete_object(
        self,
        ctx: OpContext,
        bucket: str,
        key: str,
    ) -> Generator[Event, Any, None]:
        objects = self._bucket(bucket)
        fault = draw_fault(self.faults, "delete_object", mutating=True)
        if fault is not None:
            yield from self.faults.fire_before(fault, f"delete_object {bucket}/{key}")
        yield self.env.timeout(self._latency(ctx, self.profile.obj_write, 0.0))
        objects.pop(key, None)
        self.meter.charge(ctx.payer or self.service_label, "obj_write",
                          self.profile.prices.object_write_cost(0.0))
        if fault is not None:
            self.faults.fire_after(fault, f"delete_object {bucket}/{key}")
