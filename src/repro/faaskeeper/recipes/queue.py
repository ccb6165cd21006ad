"""Distributed FIFO queue (Hunt et al., ATC'10, Section 2.4).

``put`` appends a sequence node under the queue path (Z1's total write
order is the queue order); ``get`` claims the smallest-sequence entry by
deleting it — the conditional delete is the atomic claim, so exactly one
consumer wins each entry and losers simply move to the next.  A blocking
``get`` arms a children watch before concluding the queue is empty, so a
``put`` racing the look is never missed.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..exceptions import NoNodeError
from .base import Recipe, sequence_sorted

__all__ = ["Queue"]


class Queue(Recipe):
    """Kazoo-style queue::

        queue = recipes.Queue(client, "/queues/tasks")
        queue.put(b"job 1")
        data = queue.get()            # b"job 1" (None when empty)
        data = queue.get(block=True)  # wait for an entry
    """

    prefix = "entry-"

    # ------------------------------------------------------------ coroutine
    def co_put(self, value: bytes) -> Generator:
        """Append an entry; returns its node path."""
        yield from self.co_ensure_path()
        return (yield from self.client.busy_retry.co_call(
            self.client.create_async, f"{self.path}/{self.prefix}",
            bytes(value), sequence=True))

    def co_get(self, block: bool = False,
               timeout_ms: Optional[float] = None) -> Generator:
        """Claim the oldest entry; None when empty (after the timeout, if
        ``block``)."""
        yield from self.co_ensure_path()
        deadline = None if timeout_ms is None else self.env.now + timeout_ms
        while True:
            fired, on_change = self._wake_event()
            # The children watch is armed before the listing (register-
            # before-read), so an entry created after an empty look fires it.
            children = yield self.client.get_children_async(
                self.path, watch=on_change if block else None).event
            for name in sequence_sorted(children, self.prefix):
                entry = f"{self.path}/{name}"
                try:
                    data, _stat = yield self.client.get_data_async(entry).event
                    # The delete is the claim: one winner per entry.
                    yield from self.client.busy_retry.co_call(
                        self.client.delete_async, entry)
                except NoNodeError:
                    continue  # another consumer won this entry
                return data
            if not block:
                return None
            if not (yield from self._co_wait(fired, deadline)):
                return None

    def co_qsize(self) -> Generator:
        yield from self.co_ensure_path()
        children = yield self.client.get_children_async(self.path).event
        return len(sequence_sorted(children, self.prefix))

    # ------------------------------------------------------------ sync
    def put(self, value: bytes) -> str:
        return self._run(self.co_put(value))

    def get(self, block: bool = False,
            timeout_ms: Optional[float] = None) -> Optional[bytes]:
        return self._run(self.co_get(block, timeout_ms))

    def qsize(self) -> int:
        return self._run(self.co_qsize())

    def is_empty(self) -> bool:
        return self.qsize() == 0

    def __len__(self) -> int:
        return self.qsize()
