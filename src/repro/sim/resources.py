"""Process-interaction resources for the DES kernel.

Provides the three coordination objects the simulated cloud is built from:

* :class:`Store` — an unbounded FIFO buffer of items (a queue's message
  buffer);
* :class:`Resource` — a counted semaphore with FIFO waiters (the ZooKeeper
  model's write gate);
* :class:`TokenBucketLimiter` — a rate limiter used to model per-table
  throughput ceilings (Figures 6b and 7b).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .kernel import Environment, Event, SimulationError

__all__ = ["Store", "Resource", "TokenBucketLimiter"]


class Store:
    """Unbounded FIFO item store with event-based ``get``/``put``.

    ``put`` never blocks.  ``get`` returns an event that triggers with the
    oldest item as soon as one is available.

    An idle store owns no container: the item deque appears with the first
    item that finds no waiter, the oldest waiter (a queue's one dispatcher,
    usually) sits in a slot, the waiter deque appears with a second one.
    """

    __slots__ = ("env", "_items", "_getter", "_getters")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: Optional[Deque[Any]] = None
        self._getter: Optional[Event] = None          # oldest waiter
        self._getters: Optional[Deque[Event]] = None  # younger ones, FIFO

    @property
    def items(self) -> Deque[Any]:
        """The buffered items, oldest first (redelivery pushes on the left)."""
        items = self._items
        if items is None:
            items = self._items = deque()
        return items

    def __len__(self) -> int:
        return len(self._items) if self._items else 0

    def _next_getter(self) -> None:
        self._getter = self._getters.popleft() if self._getters else None

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest waiting getter, if any."""
        getter = self._getter
        if getter is not None:
            self._next_getter()
            getter.succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        """Return an event yielding the next item (FIFO)."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        elif self._getter is None:
            self._getter = event
        else:
            if self._getters is None:
                self._getters = deque()
            self._getters.append(event)
        return event

    def get_nowait(self) -> Optional[Any]:
        """Pop the next item immediately, or return None when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def cancel_get(self, event: Event) -> None:
        """Withdraw a pending getter (used by timeout races)."""
        if event is self._getter:
            self._next_getter()
        elif self._getters:
            try:
                self._getters.remove(event)
            except ValueError:
                pass


class Resource:
    """Counted resource with FIFO request queue.

    Usage inside a process::

        req = resource.request()
        yield req
        try:
            ...critical section...
        finally:
            resource.release(req)
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of waiting requests."""
        return len(self._waiters)

    def request(self) -> Event:
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(None)
        else:
            self._waiters.append(event)
        return event

    def release(self, request: Event) -> None:
        if not request.triggered:
            # The request never got a slot: withdraw it from the queue.
            try:
                self._waiters.remove(request)
                return
            except ValueError:
                raise SimulationError(
                    "releasing a request that was never made") from None
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(None)
        else:
            self._in_use -= 1
            if self._in_use < 0:  # pragma: no cover - defensive
                raise SimulationError("resource released more times than acquired")


class TokenBucketLimiter:
    """Token-bucket rate limiter on virtual time.

    Models a service-side throughput ceiling: each operation must obtain a
    token; tokens refill at ``rate`` per second up to ``burst``.  ``admit``
    returns the delay (ms) an operation must wait before being serviced,
    which callers turn into a timeout.  This reproduces queueing delay and
    saturation behaviour without simulating individual server threads.
    """

    def __init__(self, env: Environment, rate_per_s: float, burst: float = 1.0) -> None:
        if rate_per_s <= 0:
            raise SimulationError("rate must be positive")
        self.env = env
        self.rate = rate_per_s
        self.burst = max(1.0, burst)
        # GCRA (virtual scheduling): theoretical arrival time of the next
        # conforming request, and the burst tolerance in milliseconds.
        self._tat = env.now
        self._tau = (self.burst - 1.0) * 1000.0 / rate_per_s

    def admit(self, units: float = 1.0) -> float:
        """Reserve ``units`` of capacity; return the wait in ms (0 if idle).

        Fractional units model operations that consume different amounts of
        provisioned capacity (e.g. conditional writes cost ~1.19 units —
        the source of Figure 6b's locked-throughput gap).  The GCRA form
        guarantees the long-run admitted rate never exceeds ``rate_per_s``
        units/s while permitting bursts of up to ``burst`` operations.
        """
        if units <= 0:
            return 0.0
        now = self.env.now
        increment = 1000.0 * units / self.rate
        tat = max(self._tat, now)
        wait = max(0.0, tat - self._tau - now)
        self._tat = tat + increment
        return wait
