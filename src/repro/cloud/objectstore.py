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

from ..sim.kernel import Yield
from .context import OpContext
from .endpoint import StorageEndpoint
from .errors import NoSuchBucket, NoSuchObject
from .expressions import clone

__all__ = ["ObjectStore"]


class ObjectStore(StorageEndpoint):
    """Named buckets of key -> (bytes-like payload, metadata dict)."""

    stream = "obj"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._buckets: Dict[str, Dict[str, tuple[Any, Dict[str, Any]]]] = {}

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

    def head(self, bucket: str, key: str) -> Optional[Dict[str, Any]]:
        """Zero-latency, unbilled metadata peek (S3 ``HeadObject``'s answer)."""
        entry = self._bucket(bucket).get(key)
        return None if entry is None else entry[1]

    def clear_bucket(self, bucket: str) -> None:
        """Destroy every object of ``bucket`` in place, as a lost region does."""
        self._bucket(bucket).clear()

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

    # ------------------------------------------------------------ operations
    def put_object(
        self,
        ctx: OpContext,
        bucket: str,
        key: str,
        payload: Any,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Generator[Yield, Any, None]:
        """Whole-object write (there is no partial-update path, Req. #6)."""
        objects = self._bucket(bucket)
        fault = None if self.faults is None else (
            yield from self._fault("put_object", True, f"{bucket}/{key}"))
        size_kb = self.payload_kb(payload)
        yield self._latency(ctx, self.profile.obj_write, size_kb)
        if key in objects:
            self._handout((bucket, key), objects[key][1])
        objects[key] = (payload, clone(metadata or {}))
        self._stored((bucket, key), metadata or {})
        self._charge(ctx, "obj_write", self.profile.prices.object_write_cost(size_kb))
        self._reply(fault)

    def get_object(
        self,
        ctx: OpContext,
        bucket: str,
        key: str,
    ) -> Generator[Yield, Any, tuple[Any, Dict[str, Any]]]:
        """Strongly consistent read; raises :class:`NoSuchObject` if absent."""
        objects = self._bucket(bucket)
        if self.faults is not None:
            yield from self._fault("get_object", False, f"{bucket}/{key}")
        entry = objects.get(key)
        size_kb = self.payload_kb(entry[0]) if entry else 0.0
        yield self._latency(ctx, self.profile.obj_read, size_kb)
        self._charge(ctx, "obj_read", self.profile.prices.object_read_cost(size_kb))
        entry = objects.get(key)
        if entry is None:
            raise NoSuchObject(f"{bucket}/{key}")
        self._handout((bucket, key), entry[1])
        return entry

    def delete_object(
        self,
        ctx: OpContext,
        bucket: str,
        key: str,
    ) -> Generator[Yield, Any, None]:
        objects = self._bucket(bucket)
        fault = None if self.faults is None else (
            yield from self._fault("delete_object", True, f"{bucket}/{key}"))
        yield self._latency(ctx, self.profile.obj_write, 0.0)
        objects.pop(key, None)
        self._charge(ctx, "obj_write", self.profile.prices.object_write_cost(0.0))
        self._reply(fault)
