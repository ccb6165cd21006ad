"""Shared counter: version-conditioned compare-and-swap over one znode.

The value lives as a decimal string in the counter node's data; every
change is a read followed by a ``set_data`` conditioned on the read's
version (Z1 makes the conditional write the atomic arbiter), retried on
:class:`BadVersionError` with a deterministic linear backoff.  Lost
updates are impossible; contention costs retries, not correctness.
"""

from __future__ import annotations

from typing import Generator

from ..exceptions import (
    BadVersionError,
    NodeExistsError,
    NoNodeError,
    RetryFailedError,
)
from ..model import parent_path
from .base import Recipe

__all__ = ["Counter"]


class Counter(Recipe):
    """Kazoo-style counter::

        counter = recipes.Counter(client, "/stats/jobs")
        counter += 1
        counter -= 2
        print(counter.value)
    """

    def __init__(self, client, path: str, default: int = 0) -> None:
        super().__init__(client, path)
        self.default = int(default)
        #: Value written by this session's last successful change.
        self.last_set = self.default

    @staticmethod
    def _decode(data: bytes, default: int) -> int:
        return int(data) if data else default

    # ------------------------------------------------------------ coroutine
    def co_ensure_node(self) -> Generator:
        if self._ensured:
            return None
        parent = parent_path(self.path)
        if parent != "/":
            yield from self.client.co_ensure_path(parent)
        stat = yield self.client.exists_async(self.path).event
        if stat is None:
            try:
                yield self.client.create_async(
                    self.path, str(self.default).encode()).event
            except NodeExistsError:
                pass
        self._ensured = True
        return None

    def co_get(self, max_tries: int = 20) -> Generator:
        yield from self.co_ensure_node()
        for attempt in range(max_tries):
            try:
                data, _stat = yield self.client.get_data_async(self.path).event
            except NoNodeError:
                # A sibling's winning create has committed but not yet
                # replicated into this region: retry the read.
                yield self.env.timeout(25.0 * (attempt + 1))
                continue
            return self._decode(data, self.default)
        raise RetryFailedError(
            f"counter {self.path} never became readable")

    def co_add(self, delta: int, max_tries: int = 50) -> Generator:
        """Atomically add ``delta``; returns the new value."""
        yield from self.co_ensure_node()
        for attempt in range(max_tries):
            try:
                data, stat = yield self.client.get_data_async(self.path).event
                new = self._decode(data, self.default) + delta
                yield self.client.set_data_async(
                    self.path, str(new).encode(), version=stat.version).event
            except (BadVersionError, NoNodeError):
                # Lost the compare-and-swap race (or the winning create is
                # not yet replicated): linear deterministic backoff spreads
                # contenders without a shared RNG draw.
                yield self.env.timeout(5.0 * (attempt + 1))
                continue
            self.last_set = new
            return new
        raise RetryFailedError(
            f"counter {self.path}: {max_tries} compare-and-swap attempts "
            f"all lost the race")

    # ------------------------------------------------------------ sync
    @property
    def value(self) -> int:
        return self._run(self.co_get())

    def __iadd__(self, delta: int) -> "Counter":
        self._run(self.co_add(int(delta)))
        return self

    def __isub__(self, delta: int) -> "Counter":
        self._run(self.co_add(-int(delta)))
        return self
