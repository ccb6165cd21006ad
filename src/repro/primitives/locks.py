"""Timed lock over key-value conditional updates (paper Sections 2.1, 3.3).

The timed lock extends a regular lock with a bounded holding time, like a
lease: this prevents a crashed function from deadlocking the system.  The
protocol, exactly as the paper specifies:

* **acquire** — conditional update that sets the lock timestamp iff no
  timestamp is present *or* the existing one is older than ``max_hold_ms``
  (an expired holder is overridden);
* **guarded updates** — every mutation of a locked item carries the
  condition :meth:`TimedLock.held_by` ("the stored timestamp still equals
  mine"), so a holder that lost the lock to expiry cannot accidentally
  overwrite newer state;
* **release / commit-unlock** — removes the timestamp, optionally fused
  with the data update into one atomic conditional write (the follower's
  step ➃ in Algorithm 1).

Every operation is a single conditional write to a single item.  The
lease rule itself — :meth:`TimedLock.free`, :meth:`TimedLock.held_by`,
:attr:`TimedLock.UNLOCK` and :meth:`TimedLock.live` — is public, so callers
that fuse several items into one storage transaction (the follower's
commit, the leader's TryCommit, the GC's guarded delete) state it through
the lock rather than by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Sequence

from ..cloud.context import OpContext
from ..cloud.errors import ConditionFailed
from ..cloud.expressions import Attr, Condition, Remove, Set, UpdateAction
from ..cloud.kvstore import KeyValueStore

__all__ = ["TimedLock", "LockHandle", "LOCK_ATTR"]

#: Attribute path where the lock timestamp lives inside the item.
LOCK_ATTR = "lock"


@dataclass(frozen=True)
class LockHandle:
    """Proof of acquisition: the timestamp written by the holder."""

    key: str
    timestamp: float
    item: Optional[Dict[str, Any]]  # item image at acquisition (old data)


class TimedLock:
    """A timed (leased) lock on one key-value item."""

    def __init__(
        self,
        store: KeyValueStore,
        table: str,
        max_hold_ms: float = 2_000.0,
    ) -> None:
        self.store = store
        self.table = table
        self.max_hold_ms = max_hold_ms

    #: The update that removes the lock (fused into a commit by callers).
    UNLOCK = Remove(LOCK_ATTR)

    # ------------------------------------------------------------ lease rule
    def free(self, now: float) -> Condition:
        """The item carries no lock, or only one expired at ``now``."""
        held = Attr(f"{LOCK_ATTR}.ts")
        return held.not_exists() | (held <= now - self.max_hold_ms)

    def held_by(self, timestamp: float) -> Condition:
        """The item's lock is still the one taken at ``timestamp``."""
        return Attr(f"{LOCK_ATTR}.ts") == timestamp

    def live(self, item: Optional[Dict[str, Any]], now: float) -> bool:
        """Whether ``item`` (an image read earlier) holds an unexpired lock:
        the read-side twin of ``~free(now)``."""
        ts = ((item or {}).get(LOCK_ATTR) or {}).get("ts")
        return ts is not None and now - ts < self.max_hold_ms

    # ------------------------------------------------------------ protocol
    def acquire(
        self, ctx: OpContext, key: str
    ) -> Generator[Any, Any, Optional[LockHandle]]:
        """Try to acquire; returns a handle or ``None`` when held by another.

        The handle carries the item image observed at acquisition — the
        ``oldData`` of Algorithm 1 step ➀.
        """
        now = self.store.env.now
        try:
            new_image = yield from self.store.update_item(
                ctx,
                self.table,
                key,
                updates=[Set(f"{LOCK_ATTR}.ts", now)],
                condition=self.free(now),
            )
        except ConditionFailed:
            return None
        return LockHandle(key=key, timestamp=now, item=new_image)

    def release(self, ctx: OpContext, handle: LockHandle) -> Generator[Any, Any, bool]:
        """Remove the timestamp iff we still hold the lock."""
        try:
            yield from self.store.update_item(
                ctx,
                self.table,
                handle.key,
                updates=[self.UNLOCK],
                condition=self.held_by(handle.timestamp),
            )
        except ConditionFailed:
            return False
        return True

    def commit_unlock(
        self,
        ctx: OpContext,
        handle: LockHandle,
        updates: Sequence[UpdateAction],
        extra_condition: Optional[Condition] = None,
    ) -> Generator[Any, Any, Optional[Dict[str, Any]]]:
        """Atomically apply updates *and* release the lock (step ➃).

        The commit succeeds only while the item still carries the holder's
        timestamp.  Expiry alone does not refuse it: an expired lock stays
        in place until a new holder re-takes it or a party committing
        under it (the leader's TryCommit) clears it.  After either, this
        is a no-op returning ``None``, so a stalled function cannot
        clobber or repeat work done in its place.
        """
        all_updates = list(updates) + [self.UNLOCK]
        condition = self.held_by(handle.timestamp)
        if extra_condition is not None:
            condition = condition & extra_condition
        try:
            return (yield from self.store.update_item(
                ctx, self.table, handle.key, updates=all_updates, condition=condition,
            ))
        except ConditionFailed:
            return None
