"""Shared counter: version-conditioned compare-and-swap over one znode.

The value lives as a decimal string in the counter node's data; every
change is a read followed by a ``set_data`` conditioned on the read's
version (Z1 makes the conditional write the atomic arbiter), retried on
:class:`BadVersionError` by ``SessionRetry.co_call``'s deterministic
backoff.  Lost updates are impossible; contention costs retries, not
correctness.
"""

from __future__ import annotations

from typing import Generator

from ..exceptions import BadVersionError, NodeExistsError, NoNodeError
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
                yield from self.client.busy_retry.co_call(
                    self.client.create_async, self.path,
                    str(self.default).encode())
            except NodeExistsError:
                pass
        self._ensured = True
        return None

    def _co_read(self) -> Generator:
        data, stat = yield self.client.get_data_async(self.path).event
        return self._decode(data, self.default), stat

    def _co_cas(self, delta: int) -> Generator:
        """One compare-and-swap: read, then write back conditioned on the
        read's version."""
        value, stat = yield from self._co_read()
        yield self.client.set_data_async(
            self.path, str(value + delta).encode(), version=stat.version).event
        return value + delta

    def co_get(self, max_tries: int = 20) -> Generator:
        yield from self.co_ensure_node()
        # NoNodeError: a sibling's create is not yet replicated here.
        value, _stat = yield from self.client.busy_retry.copy(
            retry_exceptions=(NoNodeError,), max_tries=max_tries,
            delay_ms=25.0, max_delay_ms=400.0).co_call(self._co_read)
        return value

    def co_add(self, delta: int, max_tries: int = 50) -> Generator:
        """Atomically add ``delta``; returns the new value."""
        yield from self.co_ensure_node()
        # BadVersionError: lost the compare-and-swap race.
        self.last_set = yield from self.client.busy_retry.copy(
            retry_exceptions=(BadVersionError, NoNodeError),
            max_tries=max_tries, delay_ms=5.0,
            max_delay_ms=160.0).co_call(self._co_cas, delta)
        return self.last_set

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
