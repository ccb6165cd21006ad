"""Leader election (Hunt et al., ATC'10, Section 2.4) — the lock's
herd-free queue with one slot.

Each candidate enlists with an ephemeral sequence node; the smallest
sequence number leads.  Every other candidate watches only its immediate
predecessor, so a leader's death (session eviction deletes its ephemeral
candidate node) wakes exactly one successor — no thundering herd — and
leadership passes in enlistment order.  The look at the queue is the
lock's (:meth:`_SequenceQueueWaiter._co_look`); only what happens next
differs.

The recipe is callback-driven (``volunteer(on_leadership)``): succession
rides watch deliveries, which is what lets a crashed leader be replaced
without any surviving candidate polling.  ``lead()`` is the blocking
convenience built on top.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from ..exceptions import SessionClosedError
from .lock import HELD, WAITING, _SequenceQueueWaiter

__all__ = ["Election"]


class Election(_SequenceQueueWaiter):
    """Leader election::

        election = recipes.Election(client, "/election", identifier="node-1")
        if election.volunteer(on_leadership=become_leader):
            ...  # leading right away
        # otherwise become_leader() fires when every earlier candidate is gone

    ``watching`` is the predecessor watched (None while leading) and
    ``wake_ups`` counts its deliveries: one succession wakes exactly one
    candidate.
    """

    prefix = "candidate-"
    max_slots = 1

    def __init__(self, client, path: str, identifier: str = "") -> None:
        super().__init__(client, path, identifier)
        self._callback: Optional[Callable[[], None]] = None
        self._resigned = False

    @property
    def is_leader(self) -> bool:
        return self.is_acquired

    # ------------------------------------------------------------ protocol
    def volunteer(self, on_leadership: Optional[Callable[[], None]] = None
                  ) -> bool:
        """Enlist as a candidate; returns True when leading immediately.
        ``on_leadership`` fires (once) when leadership is later inherited;
        it runs inside a simulation process, so it must not block.
        """
        self._resigned = False
        self._callback = on_leadership
        return self._run(self._co_volunteer())

    def _co_volunteer(self) -> Generator:
        yield from self._co_enlist()
        return (yield from self._co_evaluate())

    def _co_evaluate(self) -> Generator:
        """(Re)compute leadership; arm the predecessor watch otherwise."""
        while not (self._resigned or self.client.closed or self.node is None):
            try:
                state = yield from self._co_look(self._on_predecessor)
            except SessionClosedError:
                if self.node is None:
                    return False  # our candidate vanished: evicted
                raise
            if state is HELD:
                self.is_acquired = True
                if self._callback is not None:
                    callback, self._callback = self._callback, None
                    callback()
                return True
            if state is WAITING:
                return False
            # The predecessor left while we looked: we may lead now.
        return False

    def _on_predecessor(self, _event) -> None:
        self.wake_ups += 1
        if self._resigned or self.is_leader or self.client.closed:
            return
        self.env.process(self._co_succeed(),
                         name=f"recipe:Election:{self.path}")

    def _co_succeed(self) -> Generator:
        try:
            yield from self._co_evaluate()
        except SessionClosedError:
            pass  # evicted between delivery and re-evaluation

    def resign(self) -> None:
        """Step down / withdraw the candidacy."""
        self._resigned = True
        self.watching = None
        self._callback = None
        self.release()

    def lead(self, timeout_ms: Optional[float] = None) -> bool:
        """Block until this candidate leads (True) or the timeout passes."""
        gained = self._event()
        if self.volunteer(on_leadership=gained.succeed):
            return True
        deadline = None if timeout_ms is None else self.env.now + timeout_ms
        return self._run(self._co_wait(gained, deadline))

    def contenders(self) -> List[str]:
        """Candidate identifiers in succession order (leader first)."""
        return self._queued_identifiers()
