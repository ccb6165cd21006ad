"""Garbage collection of tombstones (extension).

Section 2.1 names garbage collection as the canonical use of scheduled
functions; here it needs no schedule, because the write that makes the
garbage names it.  A delete leaves an ``exists=False`` item — a
*tombstone* — in the system node table, so that a late redelivery of the
delete still finds the txid it verifies against.  The leader that pops a
delete lists ``(path, txid)`` in one message per batch to the ``fk-gc-q``
FIFO queue — also for a delete it finds already applied, so a leader that
crashed between the pop and the send sends it on redelivery — and the
queue holds every message :data:`TOMBSTONE_GRACE_MS` before the ``fk-gc``
function sees it (SQS's ``DelaySeconds``).  The function then deletes each
tombstone under one guard: still a tombstone, still the one that txid
made (``applied_tx``), and no live lock.  A path re-created or deleted
again in the meantime is left alone; a later delete sends its own message.

The rest of what a sweeper would collect is never left behind: a lock on
a path with no node goes with its release (``TimedLock.release`` deletes
an item that held only the lock), and a watch instance whose sessions are
all dead is consumed by the next write to its path, whose deliveries to
closed clients are dropped.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from ..cloud.errors import ConditionFailed
from ..cloud.expressions import Attr
from .layout import SYSTEM_NODES
from .leader import RetryBatch

__all__ = ["GarbageCollectorLogic", "TOMBSTONE_GRACE_MS"]

#: How long a tombstone outlives the pop of its delete (ms): the delay of
#: the ``fk-gc-q`` queue.
TOMBSTONE_GRACE_MS = 60_000.0


class GarbageCollectorLogic:
    """Behaviour of the GC function, bound to one deployment."""

    def __init__(self, service) -> None:
        self.service = service
        self._collected = service.metrics.counter(
            "fk_gc_collected_total", "Items reclaimed by the GC",
            ("kind",)).labels(kind="tombstone")

    def handler(self, fctx, batch: List[Dict[str, Any]]) -> Generator:
        """One guarded delete per listed tombstone.  A tombstone whose only
        failed guard is a live lock (a write in flight on its path) makes
        the queue redeliver the batch: the lock's release leaves the
        tombstone in place."""
        store, lock = self.service.system_store, self.service.node_lock
        for body in batch:
            for path, txid in body["tombstones"]:
                guard = ((Attr("exists") == False)  # noqa: E712
                         & (Attr("applied_tx") == txid)
                         & lock.free(fctx.env.now))
                try:
                    yield from store.delete_item(fctx.ctx, SYSTEM_NODES, path,
                                                 condition=guard)
                except ConditionFailed as failed:
                    item = failed.item or {}
                    if (item.get("exists") is False
                            and item.get("applied_tx") == txid):
                        raise RetryBatch(f"lock live on tombstone {path}")
                    continue  # re-created, deleted again, or collected
                self._collected.inc()
        return None
