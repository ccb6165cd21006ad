"""Leader election (Hunt et al., ATC'10, Section 2.4) — the herd-free
successor chain.

Each candidate enlists with an ephemeral sequence node; the smallest
sequence number leads.  Every other candidate watches only its immediate
predecessor, so a leader's death (session eviction deletes its ephemeral
candidate node) wakes exactly one successor — no thundering herd — and
leadership passes in enlistment order.

The recipe is callback-driven (``volunteer(on_leadership)``): succession
rides watch deliveries, which is what lets a crashed leader be replaced
without any surviving candidate polling.  ``lead()`` is the blocking
convenience built on top.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..exceptions import NoNodeError, SessionClosedError
from .base import Recipe, sequence_sorted

__all__ = ["Election"]


class Election(Recipe):
    """Leader election::

        election = recipes.Election(client, "/election", identifier="node-1")
        if election.volunteer(on_leadership=become_leader):
            ...  # leading right away
        # otherwise become_leader() fires when every earlier candidate is gone
    """

    prefix = "candidate-"

    def __init__(self, client, path: str, identifier: str = "") -> None:
        super().__init__(client, path)
        self.identifier = identifier or client.session_id
        self.node: Optional[str] = None      # our candidate node (full path)
        self.is_leader = False
        #: Predecessor we are currently watching (None while leading).
        self.watching: Optional[str] = None
        #: Predecessor-watch deliveries (herd accounting: one succession
        #: wakes exactly one candidate).
        self.wake_ups = 0
        self._callback: Optional[Callable[[], None]] = None
        self._resigned = False

    @property
    def node_name(self) -> Optional[str]:
        return None if self.node is None else self.node.rsplit("/", 1)[1]

    # ------------------------------------------------------------ protocol
    def volunteer(self, on_leadership: Optional[Callable[[], None]] = None
                  ) -> bool:
        """Enlist as a candidate; returns True when leading immediately.
        ``on_leadership`` fires (once) when leadership is later inherited.
        """
        self._resigned = False
        self._callback = on_leadership
        self.client.ensure_path(self.path)
        if self.node is None:
            self.node = self.client.create(
                f"{self.path}/{self.prefix}", self.identifier.encode(),
                ephemeral=True, sequence=True)
        return self._evaluate()

    def _evaluate(self) -> bool:
        """(Re)compute leadership; arm the predecessor watch otherwise."""
        if self._resigned or self.client.closed or self.node is None:
            return False
        queue = sequence_sorted(self.client.get_children(self.path),
                                self.prefix)
        mine = self.node_name
        if mine not in queue:
            # Our ephemeral candidate vanished: the session was evicted.
            self.node = None
            return False
        index = queue.index(mine)
        if index == 0:
            self.is_leader = True
            self.watching = None
            if self._callback is not None:
                callback, self._callback = self._callback, None
                callback()
            return True
        self.watching = f"{self.path}/{queue[index - 1]}"
        stat = self.client.exists(self.watching, watch=self._on_predecessor)
        if stat is None:
            # Predecessor vanished between the listing and the stat:
            # re-evaluate — we may have inherited the lead.
            return self._evaluate()
        return False

    def _on_predecessor(self, _event) -> None:
        self.wake_ups += 1
        if self._resigned or self.is_leader or self.client.closed:
            return
        try:
            self._evaluate()
        except SessionClosedError:
            pass  # evicted between delivery and re-evaluation

    def resign(self) -> None:
        """Step down / withdraw the candidacy."""
        self._resigned = True
        self.is_leader = False
        self.watching = None
        self._callback = None
        if self.node is not None:
            try:
                self.client.delete(self.node)
            except (NoNodeError, SessionClosedError):
                pass
            self.node = None

    def lead(self, timeout_ms: Optional[float] = None) -> bool:
        """Block until this candidate leads (True) or the timeout passes."""
        gained = self._event()
        if self.volunteer(on_leadership=gained.succeed):
            return True
        deadline = None if timeout_ms is None else self.env.now + timeout_ms
        return self._run(self._co_wait(gained, deadline))

    def contenders(self) -> List[str]:
        """Candidate identifiers in succession order (leader first)."""
        found = []
        for name in sequence_sorted(self.client.get_children(self.path),
                                    self.prefix):
            try:
                data, _stat = self.client.get_data(f"{self.path}/{name}")
                found.append(data.decode())
            except NoNodeError:
                pass
        return found
