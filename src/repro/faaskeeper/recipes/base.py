"""Shared machinery of the coordination recipes.

Every recipe is written against the *public* client surface only —
ephemeral and sequence nodes, watches, ``multi()``, ``ensure_path`` and the
session's busy retry — never against service or storage internals, so a
recipe is exactly the code a FaaSKeeper user would write (and exercises the
full write pipeline, cache and distributor stages underneath).  Each write
runs through ``client.busy_retry.co_call``, which replays a ``system_busy``
rejection on the virtual clock and surfaces every other error.

Recipes come in two forms:

* **synchronous** methods (``acquire()``, ``wait()``, ``get()``) drive the
  virtual clock until the operation completes — the natural form for
  example scripts and linear flows;
* **coroutine** methods (``co_acquire()``, ``co_wait()``, ``co_get()``)
  are generators to be spawned as simulation processes
  (``cloud.env.process(lock.co_acquire())``) — the form the contention
  tests and benchmarks use to run many contenders concurrently, the
  simulation's analogue of one thread per client.

Both forms share the same protocol code: the sync facade just runs the
coroutine on the event loop.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ...sim.kernel import AnyOf
from ..exceptions import NoNodeError, SessionClosedError
from ..model import validate_path

__all__ = ["Recipe", "sequence_sorted"]


def sequence_sorted(children: List[str], prefix: str = "") -> List[str]:
    """Child names filtered by ``prefix`` and ordered by their 10-digit
    sequence suffix (creation order — the queue discipline of every
    sequence-node recipe)."""
    return sorted((c for c in children if c.startswith(prefix)),
                  key=lambda c: c[-10:])


class Recipe:
    """Base class: a client session plus the znode path the recipe owns."""

    def __init__(self, client, path: str) -> None:
        validate_path(path)
        if path == "/":
            raise ValueError("recipes need a dedicated path, not '/'")
        self.client = client
        self.path = path
        self._ensured = False

    @property
    def env(self):
        return self.client.env

    # ------------------------------------------------------------ plumbing
    def _run(self, gen: Generator):
        """Synchronous facade: run a recipe coroutine to completion on the
        event loop and hand back its result (or raise its error)."""
        env = self.env
        return env.run(until=env.process(
            gen, name=f"recipe:{type(self).__name__}:{self.path}"))

    def _event(self):
        """A fresh defused kernel event (watch-callback rendezvous)."""
        event = self.env.event()
        event.defused()
        return event

    def _wake_event(self):
        """Event + watch callback pair: the callback fires the event once
        (subsequent deliveries of a re-armed loop are absorbed)."""
        event = self._event()

        def on_change(_watched_event, _ev=event):
            if not _ev.triggered:
                _ev.succeed(None)

        return event, on_change

    def co_ensure_path(self) -> Generator:
        """Create the recipe's root path once (idempotent)."""
        if not self._ensured:
            yield from self.client.co_ensure_path(self.path)
            self._ensured = True
        return None

    def _co_delete_quiet(self, path: str) -> Generator:
        """Delete ``path``, absorbing already-gone and session-dead errors
        (an evicted session's ephemeral nodes are cleaned up server-side)."""
        try:
            yield from self.client.busy_retry.co_call(
                self.client.delete_async, path)
        except (NoNodeError, SessionClosedError):
            pass
        return None

    def _co_wait(self, event, deadline: Optional[float]) -> Generator:
        """Wait for ``event``; False when ``deadline`` (absolute virtual
        time, None = forever) passes first."""
        if event.triggered:
            return True
        if deadline is None:
            yield event
            return True
        remaining = deadline - self.env.now
        if remaining <= 0:
            return False
        yield AnyOf(self.env, [event, self.env.timeout(remaining)])
        return event.triggered
