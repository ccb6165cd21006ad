"""Atomic counter and atomic list (paper Sections 2.1, 3.3).

* The **atomic counter** is a single number; an update adds a constant in
  one storage operation — FaaSKeeper's system state counter ``txid`` is one
  of these.
* The **atomic list** supports safe concurrent expansion and truncation —
  FaaSKeeper's epoch counter (pending watch notifications per region) and
  per-node pending-transaction lists are atomic lists.

Each operation is a single write to a single item, as the paper requires.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List

from ..cloud.context import OpContext
from ..cloud.expressions import (
    Add,
    ListAdd,
    ListAppend,
    ListPopHead,
    ListRemove,
    item_size_kb,
)
from ..cloud.kvstore import KeyValueStore

__all__ = ["AtomicCounter", "AtomicList"]


class AtomicCounter:
    """A numeric attribute with single-step atomic increments."""

    def __init__(self, store: KeyValueStore, table: str, key: str,
                 attr: str = "value") -> None:
        self.store = store
        self.table = table
        self.key = key
        self.attr = attr

    def increment(self, ctx: OpContext, delta: float = 1
                  ) -> Generator[Any, Any, float]:
        """Atomically add ``delta``; returns the post-increment value."""
        image = yield from self.store.update_item(
            ctx, self.table, self.key,
            updates=[Add(self.attr, delta)],
            atomic_hint=True,
            payload_kb=0.008,
        )
        return image[self.attr]

    def get(self, ctx: OpContext) -> Generator[Any, Any, float]:
        item = yield from self.store.get_item(ctx, self.table, self.key)
        if item is None:
            return 0
        return item.get(self.attr, 0)


class AtomicList:
    """A list attribute with atomic append / remove / truncate."""

    def __init__(self, store: KeyValueStore, table: str, key: str,
                 attr: str = "items") -> None:
        self.store = store
        self.table = table
        self.key = key
        self.attr = attr

    def append(self, ctx: OpContext, values: Iterable[Any]
               ) -> Generator[Any, Any, List[Any]]:
        """Atomically append; returns the new list contents."""
        return self._update(ctx, ListAppend, values)

    def add(self, ctx: OpContext, values: Iterable[Any]
            ) -> Generator[Any, Any, List[Any]]:
        """Atomically append the values the list does not hold yet (a
        set-like add: repeating it changes nothing); returns the new list
        contents."""
        return self._update(ctx, ListAdd, values)

    def remove(self, ctx: OpContext, values: Iterable[Any]
               ) -> Generator[Any, Any, List[Any]]:
        """Atomically remove first occurrences of the given values."""
        return self._update(ctx, ListRemove, values)

    def _update(self, ctx: OpContext, action, values: Iterable[Any]
                ) -> Generator[Any, Any, List[Any]]:
        values = list(values)
        image = yield from self.store.update_item(
            ctx, self.table, self.key,
            updates=[action(self.attr, values)],
            payload_kb=max(item_size_kb({"v": values}), 0.008),
            latency_model=self.store.profile.kv_list_append,
        )
        return image.get(self.attr, [])

    def pop_head(self, ctx: OpContext, count: int = 1
                 ) -> Generator[Any, Any, List[Any]]:
        """Atomically drop the oldest ``count`` elements (truncation)."""
        image = yield from self.store.update_item(
            ctx, self.table, self.key,
            updates=[ListPopHead(self.attr, count)],
            payload_kb=0.008,
            latency_model=self.store.profile.kv_list_append,
        )
        return image.get(self.attr, [])

    def get(self, ctx: OpContext) -> Generator[Any, Any, List[Any]]:
        item = yield from self.store.get_item(ctx, self.table, self.key)
        if item is None:
            return []
        return list(item.get(self.attr, []))
