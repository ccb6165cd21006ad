"""Garbage-collection scheduled function (extension).

Section 2.1 names garbage collection as the canonical use of scheduled
functions ("Functions can be launched to perform regular routines such as
garbage collection..."); the paper's prototype leaves it implicit.  This
module implements it:

* **tombstones** — deleted nodes leave ``exists=False`` items in the system
  node table so the leader can verify late transactions; once the pending
  transaction list is drained and a grace period has passed, the item can
  be removed;
* **phantom lock items** — a failed create leaves an item containing only
  an (expired) lock timestamp; these are swept as well;
* **stale watch instances** — watch instances whose sessions are all gone
  are dropped, so dead clients do not accumulate fan-out work.

The sweeper runs as a scheduled function, just like the heartbeat, and is
suspended together with it at scale-to-zero.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from ..cloud.errors import ConditionFailed
from ..cloud.expressions import Attr
from .follower import LOCK_MAX_HOLD_MS
from .layout import SYSTEM_NODES, SYSTEM_SESSIONS, SYSTEM_WATCHES

__all__ = ["GarbageCollectorLogic", "GC_PERIOD_MS"]

#: Period of the scheduled sweep (ms).
GC_PERIOD_MS = 300_000.0
#: A tombstone must be idle this long before collection (ms).
TOMBSTONE_GRACE_MS = 60_000.0


class GarbageCollectorLogic:
    """Behaviour of the GC function, bound to one deployment."""

    def __init__(self, service) -> None:
        self.service = service
        self._collected = service.metrics.counter(
            "fk_gc_collected_total",
            "Items reclaimed by the GC sweep", ("kind",))

    def handler(self, fctx, payload: Any) -> Generator:
        yield from self._sweep_nodes(fctx)
        yield from self._sweep_watches(fctx)
        collected = self._collected
        return {
            "tombstones": int(collected.labels(kind="tombstone").value),
            "phantoms": int(collected.labels(kind="phantom").value),
            "watches": int(collected.labels(kind="watch").value),
        }

    # ------------------------------------------------------------ nodes
    def _sweep_nodes(self, fctx) -> Generator:
        store = self.service.system_store
        table = store.table(SYSTEM_NODES)
        now = fctx.env.now
        # The scan is billed like the heartbeat's session scan.
        items = yield from store.scan(fctx.ctx, SYSTEM_NODES)
        for key, item in items.items():
            if key == "/":
                continue
            lock_ts = (item.get("lock") or {}).get("ts")
            lock_expired = lock_ts is None or now - lock_ts >= LOCK_MAX_HOLD_MS
            if not lock_expired:
                continue
            is_tombstone = item.get("exists") is False and not item.get("transactions")
            is_phantom = "exists" not in item and not item.get("transactions")
            if is_tombstone and now - self._age_marker(item) < TOMBSTONE_GRACE_MS:
                continue
            if not (is_tombstone or is_phantom):
                continue
            # Guarded delete: only while still tombstone/phantom and unlocked.
            guard = (Attr("lock.ts").not_exists()
                     | (Attr("lock.ts") <= now - LOCK_MAX_HOLD_MS))
            if is_tombstone:
                guard = guard & (Attr("exists") == False)  # noqa: E712
            else:
                guard = guard & Attr("exists").not_exists()
            try:
                yield from store.delete_item(fctx.ctx, SYSTEM_NODES, key,
                                             condition=guard)
            except ConditionFailed:
                continue  # resurrected concurrently: leave it alone
            if is_tombstone:
                self._collected.labels(kind="tombstone").inc()
            else:
                self._collected.labels(kind="phantom").inc()
        return None

    @staticmethod
    def _age_marker(item: Dict[str, Any]) -> float:
        # Tombstones carry no timestamp attribute; use the lock timestamp
        # (set at deletion time) when present, else treat as old.
        lock_ts = (item.get("lock") or {}).get("ts")
        return lock_ts if lock_ts is not None else 0.0

    # ------------------------------------------------------------ watches
    def _sweep_watches(self, fctx) -> Generator:
        store = self.service.system_store
        sessions = yield from store.scan(fctx.ctx, SYSTEM_SESSIONS)
        live = set(sessions.keys())
        watch_items = yield from store.scan(fctx.ctx, SYSTEM_WATCHES)
        for path, item in watch_items.items():
            for wtype, inst in (item.get("inst") or {}).items():
                alive = [s for s in inst.get("sessions", []) if s in live]
                if alive:
                    continue
                # Guarded removal: the scan snapshot is stale by the time
                # the update lands — a watch consumed (fired) and
                # re-registered in between holds a fresh instance id, and a
                # live session may have joined the existing instance;
                # deleting either would silently unsubscribe live sessions.
                removed = yield from self.service.watch_registry.remove_instance(
                    fctx.ctx, path, wtype, inst.get("id"),
                    inst.get("sessions", []))
                if removed:
                    self._collected.labels(kind="watch").inc()
        return None
