"""Distributed lock and semaphore (Hunt et al., ATC'10, Section 2.4).

Both are the classic herd-free ZooKeeper queue discipline: every
contender creates an ephemeral **sequence** node under the recipe path;
the queue position decides.  A :class:`Lock` grants the single head of
the queue; a :class:`Semaphore` grants the first ``max_leases`` positions;
:class:`~repro.faaskeeper.recipes.Election` is the same one-slot queue,
whose head leads.
A waiter at position ``i`` watches only the node at position
``i - max_slots`` — the exact contender whose departure can admit it — so
a release (or a holder's session eviction) wakes at most one waiter — no
thundering herd — and grants strictly in FIFO request order, which is
where the fairness edge over the paper's timed (try-)lock comes from
(``benchmarks/bench_recipe_lock.py``).

Correctness leans on the service guarantees: Z1 makes the sequence-node
create an atomic enqueue, the parent's child list is serialized by the
follower's node lock (a later contender always observes every earlier
one), and the watch-before-read protocol (register inside ``exists``
ahead of the storage fetch) means a blocker observed alive is guaranteed
to fire the armed watch when it goes — a wakeup can never be lost between
the look and the wait.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..exceptions import NoNodeError, SessionClosedError
from .base import Recipe, sequence_sorted

__all__ = ["Lock", "Semaphore"]

#: What one look at the queue found (:meth:`_SequenceQueueWaiter._co_look`).
HELD, WAITING, LOOK_AGAIN = "held", "waiting", "look again"


class _SequenceQueueWaiter(Recipe):
    """Shared queue discipline: grant when fewer than ``max_slots``
    contenders are ahead, else watch the one whose departure can admit us.
    """

    #: Contender node name prefix (a 10-digit sequence suffix is appended).
    prefix = "contender-"
    #: Number of concurrent holders the queue admits.
    max_slots = 1

    def __init__(self, client, path: str, identifier: str = "") -> None:
        super().__init__(client, path)
        self.identifier = identifier or client.session_id
        self.node: Optional[str] = None      # our contender node (full path)
        self.is_acquired = False
        #: The contender whose departure can admit us (None while held).
        self.watching: Optional[str] = None
        #: Blocker-watch deliveries received while actually waiting (herd
        #: accounting: a herd-free queue sees at most one per release).
        self.wake_ups = 0
        self._current_wait = None

    @property
    def node_name(self) -> Optional[str]:
        return None if self.node is None else self.node.rsplit("/", 1)[1]

    # ------------------------------------------------------------ protocol
    def _co_enlist(self) -> Generator:
        """Enqueue: our ephemeral sequence node, made once."""
        yield from self.co_ensure_path()
        if self.node is None:
            self.node = yield from self.client.busy_retry.co_call(
                self.client.create_async, f"{self.path}/{self.prefix}",
                self.identifier.encode(), ephemeral=True, sequence=True)
        return None

    def _co_look(self, on_change) -> Generator:
        """One look at the queue: HELD when fewer than ``max_slots``
        contenders are ahead of us; otherwise ``on_change`` is armed on the
        one whose departure can admit us (recorded as ``watching``), and
        the look is WAITING while it lives, LOOK_AGAIN if it left while we
        looked.  Raises :class:`SessionClosedError` when our own node is
        gone: the session was evicted (or an outsider deleted the node)."""
        mine = self.node_name
        queue = sequence_sorted(
            (yield self.client.get_children_async(self.path).event),
            self.prefix)
        if mine not in queue:
            self.node = None
            raise SessionClosedError(
                f"contender {mine} vanished from {self.path}")
        index = queue.index(mine)
        if index < self.max_slots:
            self.watching = None
            return HELD
        self.watching = f"{self.path}/{queue[index - self.max_slots]}"
        # Register-before-read: if the blocker is observed alive, its
        # departure is guaranteed to fire this watch.  Should it vanish
        # between the listing and this stat, the armed instance can linger
        # until the blocker's (never-recurring) sequence path would change
        # — a bounded storage leak the GC reclaims with the session.
        stat = yield self.client.exists_async(self.watching,
                                              watch=on_change).event
        return LOOK_AGAIN if stat is None else WAITING

    # ------------------------------------------------------------ coroutine
    def co_acquire(self, blocking: bool = True,
                   timeout_ms: Optional[float] = None) -> Generator:
        """Acquire a slot; returns True when held.  Non-blocking or
        timed-out attempts withdraw the contender node and return False
        (kazoo semantics)."""
        if self.is_acquired:
            return True
        yield from self._co_enlist()
        deadline = None if timeout_ms is None else self.env.now + timeout_ms
        try:
            while True:
                fired, on_change = self._wake_event()
                self._current_wait = fired

                def counted(event, _cb=on_change, _fired=fired):
                    # Herd accounting counts only the wake of the wait
                    # still in progress; a stale watch left behind by an
                    # abandoned or superseded attempt fires silently.
                    if self._current_wait is _fired:
                        self.wake_ups += 1
                    _cb(event)

                state = yield from self._co_look(counted)
                if state is HELD:
                    self.is_acquired = True
                    return True
                if state is LOOK_AGAIN:
                    continue
                if not blocking:
                    yield from self.co_release()
                    return False
                if not (yield from self._co_wait(fired, deadline)):
                    yield from self.co_release()
                    return False
        finally:
            self._current_wait = None

    def co_release(self) -> Generator:
        """Release the slot (or withdraw a pending contender node)."""
        if self.node is None:
            return False
        yield from self._co_delete_quiet(self.node)
        self.node = None
        self.is_acquired = False
        return True

    # ------------------------------------------------------------ sync
    def acquire(self, blocking: bool = True,
                timeout_ms: Optional[float] = None) -> bool:
        return self._run(self.co_acquire(blocking, timeout_ms))

    def release(self) -> bool:
        return self._run(self.co_release())

    def _queued_identifiers(self) -> List[str]:
        """Identifiers currently queued, in grant order."""
        found = []
        for name in sequence_sorted(self.client.get_children(self.path),
                                    self.prefix):
            try:
                data, _stat = self.client.get_data(f"{self.path}/{name}")
                found.append(data.decode())
            except NoNodeError:
                pass  # released while we listed
        return found

    def __enter__(self) -> "_SequenceQueueWaiter":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class Lock(_SequenceQueueWaiter):
    """Mutual-exclusion lock, kazoo-style::

        lock = recipes.Lock(client, "/locks/app", identifier="worker-1")
        with lock:          # or lock.acquire() / lock.release()
            ...critical section...

    ``co_acquire``/``co_release`` are the coroutine forms for concurrent
    simulation-process contenders.
    """

    prefix = "lock-"
    max_slots = 1

    def contenders(self) -> List[str]:
        """Identifiers currently queued, in grant order (holder first)."""
        return self._queued_identifiers()


class Semaphore(_SequenceQueueWaiter):
    """Counting semaphore: at most ``max_leases`` concurrent holders.

    The generalized queue discipline of :class:`Lock` — the contender at
    position ``i`` holds a lease once ``i < max_leases``, watching the
    contender at ``i - max_leases`` until then, so each release wakes at
    most one waiter here too.
    """

    prefix = "lease-"

    def __init__(self, client, path: str, max_leases: int = 1,
                 identifier: str = "") -> None:
        if max_leases < 1:
            raise ValueError(f"max_leases must be >= 1, got {max_leases}")
        super().__init__(client, path, identifier)
        self.max_leases = max_leases
        self.max_slots = max_leases

    def lease_holders(self) -> List[str]:
        """Identifiers currently holding a lease."""
        return self._queued_identifiers()[:self.max_leases]
