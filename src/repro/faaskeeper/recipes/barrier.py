"""Barrier and double barrier (Hunt et al., ATC'10, Section 2.4).

The single :class:`Barrier` is a gate node: while it exists, waiters
block; removing it releases them all (one watch delivery per waiter — the
fan-out is the point here, not herd avoidance).  The :class:`DoubleBarrier`
synchronizes a fixed-size group at entry *and* exit: computation starts
only once ``num_clients`` participants have entered, and ends only once
every participant has left — the classic start/finish bracket for
distributed computations.

Both lean on Z4 (watch/data ordering): a waiter that observed the gate up
armed its watch *before* the look, so the release can never slip between
the observation and the wait.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..exceptions import NodeExistsError, NoNodeError
from ..model import parent_path
from .base import Recipe

__all__ = ["Barrier", "DoubleBarrier"]


class Barrier(Recipe):
    """Kazoo-style single barrier::

        barrier = recipes.Barrier(client, "/barriers/maintenance")
        barrier.create()       # raise the gate
        ...
        barrier.wait()         # (other sessions) block while the gate is up
        barrier.remove()       # release everyone
    """

    # ------------------------------------------------------------ coroutine
    def co_create(self) -> Generator:
        """Raise the barrier; False when it already existed."""
        parent = parent_path(self.path)
        if parent != "/":
            yield from self.client.co_ensure_path(parent)
        try:
            yield from self.client.busy_retry.co_call(
                self.client.create_async, self.path, b"")
        except NodeExistsError:
            return False
        return True

    def co_wait(self, timeout_ms: Optional[float] = None) -> Generator:
        """Block while the barrier node exists; True once it is gone,
        False on timeout."""
        deadline = None if timeout_ms is None else self.env.now + timeout_ms
        while True:
            fired, on_change = self._wake_event()
            stat = yield self.client.exists_async(self.path,
                                                  watch=on_change).event
            if stat is None:
                return True
            if not (yield from self._co_wait(fired, deadline)):
                return False

    def co_remove(self) -> Generator:
        """Tear the barrier down; False when it was already gone."""
        try:
            yield from self.client.busy_retry.co_call(
                self.client.delete_async, self.path)
        except NoNodeError:
            return False
        return True

    # ------------------------------------------------------------ sync
    def create(self) -> bool:
        return self._run(self.co_create())

    def wait(self, timeout_ms: Optional[float] = None) -> bool:
        return self._run(self.co_wait(timeout_ms))

    def remove(self) -> bool:
        return self._run(self.co_remove())


class DoubleBarrier(Recipe):
    """Enter/leave barrier for a group of ``num_clients`` participants.

    ``enter()`` registers an ephemeral presence node and blocks until the
    group is complete (the completing participant raises a ``ready`` gate
    the others' exists-watches observe); ``leave()`` withdraws the
    presence node and blocks until every participant has left.

    The ``ready`` gate stays up until the **last** leaver observes an
    empty group and tears it down: a completer that leaves immediately
    must not delete the gate while a straggler's enter-side watch
    delivery is still in flight — the gate would never be re-created and
    the straggler (and with it every leaver waiting on its presence node)
    would block forever.  Since every entrant also leaves, the gate is
    guaranteed to still be up when a straggler's re-check runs.  One
    group generation at a time: a new round may start once the previous
    one has fully left.
    """

    READY = "ready"

    def __init__(self, client, path: str, num_clients: int,
                 identifier: str = "") -> None:
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        super().__init__(client, path)
        self.num_clients = num_clients
        self.identifier = identifier or client.session_id
        self.node: Optional[str] = None

    def _present(self, children) -> int:
        return sum(1 for c in children if c != self.READY)

    # ------------------------------------------------------------ coroutine
    def co_enter(self, timeout_ms: Optional[float] = None) -> Generator:
        """Join the group; returns True once ``num_clients`` have entered
        (False on timeout, after withdrawing)."""
        yield from self.co_ensure_path()
        deadline = None if timeout_ms is None else self.env.now + timeout_ms
        if self.node is None:
            node = f"{self.path}/{self.identifier}"
            try:
                yield from self.client.busy_retry.co_call(
                    self.client.create_async, node, b"", ephemeral=True)
            except NodeExistsError:
                pass  # re-entering with the same identifier
            self.node = node
        ready = f"{self.path}/{self.READY}"
        while True:
            # Arm the gate watch before counting, so the completing
            # participant's create cannot slip between look and wait.
            fired, on_change = self._wake_event()
            stat = yield self.client.exists_async(ready, watch=on_change).event
            if stat is not None:
                return True
            children = yield self.client.get_children_async(self.path).event
            if self._present(children) >= self.num_clients:
                try:
                    yield from self.client.busy_retry.co_call(
                        self.client.create_async, ready, b"")
                except NodeExistsError:
                    pass  # another completer raced us: gate is up either way
                return True
            if not (yield from self._co_wait(fired, deadline)):
                yield from self._co_delete_quiet(self.node)
                self.node = None
                return False

    def co_leave(self, timeout_ms: Optional[float] = None) -> Generator:
        """Withdraw and block until the whole group has left (True), or
        time out (False)."""
        deadline = None if timeout_ms is None else self.env.now + timeout_ms
        ready = f"{self.path}/{self.READY}"
        if self.node is not None:
            yield from self._co_delete_quiet(self.node)
            self.node = None
        while True:
            fired, on_change = self._wake_event()
            try:
                children = yield self.client.get_children_async(
                    self.path, watch=on_change).event
            except NoNodeError:
                return True  # barrier path itself removed: nothing to wait on
            if self._present(children) == 0:
                # Last leaver (or a harmless race of several) tears the
                # ready gate down, making the barrier reusable.
                yield from self._co_delete_quiet(ready)
                return True
            if not (yield from self._co_wait(fired, deadline)):
                return False

    # ------------------------------------------------------------ sync
    def enter(self, timeout_ms: Optional[float] = None) -> bool:
        return self._run(self.co_enter(timeout_ms))

    def leave(self, timeout_ms: Optional[float] = None) -> bool:
        return self._run(self.co_leave(timeout_ms))
