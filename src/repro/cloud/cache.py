"""Simulated in-memory cache (user-managed Redis on a VM).

The paper evaluates Redis as an alternative user-data store (Figure 8:
"FaaSKeeper with in-memory cache on par with self-hosted ZooKeeper") while
noting it is *not* serverless: it requires a provisioned VM (Table 2 marks
Redis reliability with an X) and therefore re-introduces a fixed daily cost.
We model its sub-millisecond access latency; a round trip bills nothing,
since the VM's price is per day, not per request.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..sim.kernel import Yield
from .context import OpContext
from .endpoint import StorageEndpoint
from .expressions import clone, item_size_kb

__all__ = ["InMemoryCache"]


class InMemoryCache(StorageEndpoint):
    """A flat key -> value store with Redis-like latency."""

    stream = "cache"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._data: dict = {}

    @staticmethod
    def _size_kb(value: Any) -> float:
        if isinstance(value, (bytes, bytearray)):
            return len(value) / 1024.0
        if isinstance(value, str):
            return len(value.encode()) / 1024.0
        if isinstance(value, dict):
            return item_size_kb(value)
        return 0.05

    def raw(self, key: str) -> Optional[Any]:
        """Zero-latency peek at the value stored under ``key``."""
        return self._data.get(key)

    def clear(self) -> None:
        """Destroy every key in place, as a lost VM does."""
        self._data.clear()

    def set(self, ctx: OpContext, key: str, value: Any) -> Generator[Yield, Any, None]:
        fault = None if self.faults is None else (yield from self._fault("set", True, key))
        yield self._latency(ctx, self.profile.cache_rw, self._size_kb(value))
        self._data[key] = clone(value)
        self._reply(fault)

    def get(self, ctx: OpContext, key: str) -> Generator[Yield, Any, Optional[Any]]:
        if self.faults is not None:
            yield from self._fault("get", False, key)
        value = self._data.get(key)
        yield self._latency(ctx, self.profile.cache_rw, self._size_kb(value))
        value = self._data.get(key)
        return clone(value)

    def delete(self, ctx: OpContext, key: str) -> Generator[Yield, Any, None]:
        fault = None if self.faults is None else (yield from self._fault("delete", True, key))
        yield self._latency(ctx, self.profile.cache_rw, 0.0)
        self._data.pop(key, None)
        self._reply(fault)
