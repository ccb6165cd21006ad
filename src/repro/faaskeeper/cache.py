"""Session-consistent client-side read cache with watch-driven invalidation.

FaaSKeeper reads go straight from the client to the region-local user
store, so every ``get_data``/``get_children`` pays a full storage round
trip and a per-request storage charge — the dominant cost of read-heavy
mixes (Figures 8/9).  ZooKeeper's one-shot watches make client caching
sound (Hunt et al., ATC'10): a cached value is valid exactly until the
watch registered alongside it fires.  The client therefore registers a
*system* watch (DATA for ``get_data``, CHILDREN for ``get_children``) on
every cache miss; delivery of that watch invalidates the entry, and the
next read re-fetches and re-arms.

Consistency is unchanged from the uncached read path:

* **read-your-writes** — the client invalidates every path its own write
  (or ``multi()``) touched when the write's response arrives, and reads
  still wait on the session write barrier before consulting the cache; on
  distributor deployments (``distributor_enabled``, where an ack under
  ``ack_policy="on_commit"`` precedes replication) the barrier also waits
  for the region's ``replicated_tx`` visibility watermark to cover the
  session's acked writes, so a hit can never be admitted — nor served —
  ahead of data the user store does not hold yet;
* **Z4** — a cache hit replays the ordering stall
  (:meth:`FaaSKeeperClient._gate`) against the cached image's
  epoch set, so a hit never returns data whose epoch carries one of this
  session's undelivered notifications;
* **staleness** — a hit may serve an older image than the user store
  holds, which ZooKeeper explicitly permits (reads are served from any
  replica); the watch delivery bounds the window, exactly as it bounds a
  ZooKeeper client's view.

The cache is an LRU bounded by entry count (``client_cache_entries``; with
the 250 kB node bound that also caps its bytes) and defaults to off so the
seed-calibrated figure benchmarks stay bit-for-bit identical.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Set, Tuple

from .model import WatchType

__all__ = ["ClientReadCache"]

#: Cache key: (node path, watch type guarding the entry).
CacheKey = Tuple[str, str]


class _Entry:
    __slots__ = ("key", "image", "watch_id")

    def __init__(self, key: CacheKey, image: Dict[str, Any],
                 watch_id: str) -> None:
        self.key = key
        self.image = image
        self.watch_id = watch_id


class ClientReadCache:
    """One session's LRU of node images, invalidated by watch delivery.

    Entries are keyed by ``(path, watch type)``: a ``get_data`` entry is
    guarded by the path's DATA watch instance, a ``get_children`` entry by
    its CHILDREN instance, so each entry dies with exactly the class of
    change that can stale it.
    """

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        self._by_watch: Dict[str, Set[CacheKey]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(path: str, wtype: WatchType) -> CacheKey:
        return (path, wtype.value)

    # ------------------------------------------------------------ reads
    def lookup(self, path: str, wtype: WatchType,
               require_watch_id: Optional[str] = None
               ) -> Optional[Dict[str, Any]]:
        """Return the cached image for ``(path, wtype)`` or None; counts the
        hit/miss and refreshes the entry's LRU position.

        ``require_watch_id`` is the watch instance a caller just (re-)joined
        for this path.  A mismatch with the entry's guard means the guard
        was consumed and a fresh instance minted since the entry was
        admitted: its invalidation is already in flight, and a read that
        armed a watch on the new instance must not be handed an image that
        predates the change the new watch will never report.  The doomed
        entry is dropped and the lookup misses.
        """
        entry = self._entries.get(self._key(path, wtype))
        if entry is None:
            self.misses += 1
            return None
        if require_watch_id is not None and entry.watch_id != require_watch_id:
            self._drop(entry.key)
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(entry.key)
        self.hits += 1
        return dict(entry.image)

    # ------------------------------------------------------------ writes
    def admit(self, path: str, wtype: WatchType, image: Dict[str, Any],
              watch_id: str) -> None:
        """Install an entry guarded by ``watch_id`` (the watch instance
        registered before the underlying read), evicting LRU victims until
        the entry bound holds."""
        key = self._key(path, wtype)
        self._drop(key)  # a replaced entry leaves its old guard's key set
        self._entries[key] = _Entry(key, dict(image), watch_id)
        self._by_watch.setdefault(watch_id, set()).add(key)
        while len(self._entries) > self.max_entries:
            self._drop(next(iter(self._entries)))
            self.evictions += 1

    # ------------------------------------------------------------ invalidation
    def invalidate_watch(self, watch_id: str) -> int:
        """A watch notification arrived: drop every entry it guarded."""
        keys = self._by_watch.pop(watch_id, None)
        if not keys:
            return 0
        dropped = 0
        for key in list(keys):
            if self._entries.pop(key, None) is not None:
                dropped += 1
        self.invalidations += dropped
        return dropped

    def invalidate_path(self, path: str) -> int:
        """This session wrote ``path``: drop all of its entries so the next
        read observes the write (read-your-writes through the cache)."""
        dropped = 0
        for wtype in WatchType:
            if self._drop((path, wtype.value)):
                dropped += 1
        self.invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Session closed: every entry dies with it."""
        self._entries.clear()
        self._by_watch.clear()

    # ------------------------------------------------------------ stats
    def stats(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "entries": len(self._entries),
        }

    # ------------------------------------------------------------ internal
    def _drop(self, key: CacheKey) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        keys = self._by_watch.get(entry.watch_id)
        if keys is not None:
            keys.discard(key)
            if not keys:
                self._by_watch.pop(entry.watch_id, None)
        return True
