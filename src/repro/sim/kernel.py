"""Discrete-event simulation kernel.

A small, deterministic, generator-based event loop in the style of SimPy.
Every simulated cloud service in :mod:`repro.cloud` is built as processes on
this kernel, which gives the reproduction three properties the paper's
experiments need:

* **determinism** — runs are reproducible from a single seed, so benchmark
  tables are stable across machines;
* **virtual time** — latency models advance a virtual clock instead of
  sleeping, so a multi-hour cloud experiment executes in milliseconds;
* **causal ordering** — FIFO queues, single-instance function concurrency and
  lock contention interleave exactly as scheduled, making the consistency
  properties (Z1-Z4) testable.

The public surface mirrors SimPy closely (``Environment``, ``Process``,
``Timeout``, ``AnyOf``/``AllOf``) so the simulation code reads like standard
process-interaction models.

**Ordering contract.**  Events fire in ``(time, priority, eid)`` order, eid
being the order of scheduling.  The scheduler keeps that order in two lanes:

* the *wakeup lane*, a FIFO of every URGENT event (``succeed``/``fail``,
  process start and termination);
* the *timeout heap*, ordered by ``(time, eid)``, holding ``Timeout``s and
  ``TimerTrain``s.

``step()`` drains the wakeup lane before it touches the heap.  That is the
one-heap order because URGENT events are only ever scheduled with delay 0 and
the clock only advances when a timeout is popped — which needs an empty lane.
So every pending wakeup is at ``now``, ahead of every NORMAL event of the same
instant by priority and of every later one by time, and among themselves
wakeups are ordered by eid, i.e. first in, first out.  ``peek()`` is ``now``
while the lane is non-empty.

A :class:`TimerTrain` is N timers behind one heap entry with N reserved eids,
filed at its next element's ``(time, eid)``, so its elements take the places
N ``Timeout``s would.  ``step()`` fires one element.  ``run()`` lets the train
fire the following ones inline, without a heap round trip, only while the
one-heap order would pick them anyway: the wakeup lane is empty, the element
is ahead of the heap top, and it is not past ``run``'s ``until``.

**Failure rule.**  A failed event nobody handled surfaces from ``run()``.  A
waiter handles it by being resumed with it, and a condition owns its members'
failures: the first fails the condition, one that arrives after the condition
triggered stays silent — its waiter already has its answer.

**Process rule.**  A process is for concurrency.  A caller that would spawn
one coroutine and wait for it at once runs it with ``yield from``: resumed
from the heap it finds the wakeup lane empty, so the ``Initialize``, the
termination and the wakeup it does not pay for had nothing between them and
the coroutine's first and last segment.  Fan-out is :func:`gather`.

**Run rule.**  ``run()`` is how synchronous code drives the loop, and it does
not re-enter: called while a process is active it raises
:class:`ReentrantRunError`.  A process waits by yielding the event.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "TimerTrain",
    "Process",
    "AnyOf",
    "AllOf",
    "gather",
    "SimulationError",
    "ReentrantRunError",
]


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (negative delays, double triggers...)."""


class ReentrantRunError(BaseException):
    """``run()`` was called from inside a running process.

    Not an ``Exception``: a handler's ``except Exception`` (a queue's
    redelivery, the watch fan-out's retry, a callback's isolation) must not
    swallow it, so it escapes the outer ``run()`` instead."""


# Event priorities: URGENT events (process resumptions) run before NORMAL
# events (timeouts) scheduled at the same instant, matching SimPy's semantics.
# They name the two lanes of the scheduler; see the module docstring.
URGENT = 0
NORMAL = 1

_INF = float("inf")
_PENDING = object()


class Event:
    """A condition that may be triggered once, at a simulated instant.

    Processes wait on events by ``yield``-ing them.  An event carries a value
    (delivered as the result of the ``yield``) and an *ok* flag; failed events
    re-raise their value inside the waiting process.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    # Subclasses on the hot path (Timeout, Process, Initialize) set these five
    # slots themselves instead of paying for a ``super().__init__`` call.
    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired callbacks)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        self._ok = True
        self.env._urgent.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see ``exception`` raised."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._value = exception
        self._ok = False
        self.env._urgent.append(self)
        return self

    def defused(self) -> None:
        """Mark a failed event as handled so the kernel does not re-raise."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        heappush(env._queue, (env._now + delay, next(env._eid), self))


class TimerTrain:
    """``len(delays)`` timers behind one heap entry.  Element *i* calls
    ``callback(values[i])`` at ``now + delays[i]``, in the ``(time, eid)``
    order as many :class:`Timeout` objects created here in a row would
    fire in: their eids are reserved, so ties with other timeouts break the
    same way.  The heap holds the train at its next element's ``(time,
    eid)``; ``step()`` fires that one element, and under ``run()`` the train
    goes on firing elements inline while the wakeup lane is empty, the next
    element is ahead of the heap top and ``run``'s bound is not passed (the
    module's ordering contract).  It is no event: nothing waits on a train,
    its callback signals whoever does.
    """

    __slots__ = ("env", "callbacks", "_times", "_values", "_order", "_next",
                 "_base", "_callback")
    _ok = True  # what step() asks of anything it fires

    def __init__(self, env: "Environment", delays: Iterable[float],
                 values: list, callback: Callable[[Any], None]) -> None:
        now = env._now
        self._times = times = [now + delay for delay in delays]
        if len(times) != len(values):
            raise SimulationError("a timer train needs one value per delay")
        if times and min(times) < now:
            raise SimulationError(f"negative delay {min(times) - now!r}")
        self.env = env
        self._values = values
        self._callback = callback
        # A stable sort: equal times keep creation order, i.e. eid order.
        self._order = sorted(range(len(times)), key=times.__getitem__)
        self._next = 0
        self._base = base = next(env._eid)
        env._eid = itertools.count(base + len(times))
        if times:
            self._schedule()

    def _schedule(self) -> None:
        i = self._order[self._next]
        self.callbacks = [self._fire]
        heappush(self.env._queue, (self._times[i], self._base + i, self))

    def _fire(self, _train: "TimerTrain") -> None:
        env = self.env
        urgent, queue, horizon = env._urgent, env._queue, env._horizon
        times, values, order, base = self._times, self._values, self._order, self._base
        callback, k, n = self._callback, self._next, len(order)
        try:
            while True:
                i = order[k]
                k += 1
                env._now = times[i]
                callback(values[i])
                if k == n or urgent:
                    return
                i = order[k]
                when = times[i]
                if when > horizon:
                    return
                if queue:
                    top = queue[0]
                    if when > top[0] or (when == top[0] and base + i > top[1]):
                        return
        finally:  # also when a callback raised: the rest stay scheduled
            if k < n:
                self._next = k
                self._schedule()


class Initialize(Event):
    """Internal: starts a freshly created process at the current instant."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = False
        env._urgent.append(self)


class Process(Event):
    """Wraps a generator; the process event triggers when the generator ends.

    The generator yields :class:`Event` instances; each yield suspends the
    process until the event triggers.  The event's value becomes the result
    of the ``yield`` expression, and failed events raise inside the generator.
    The process is the completion handle of its generator — it carries the
    ``return`` value, or fails with the exception that escaped — so wait on
    it: never pair an ``Event`` with the process whose end it announces.
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if type(generator) is not GeneratorType and not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    # -- generator driving --------------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        send = self._generator.send
        env._active_process = self
        while True:
            try:
                if event._ok:
                    next_ev = send(event._value)
                else:
                    event._defused = True
                    next_ev = self._generator.throw(event._value)
            except BaseException as exc:
                # The generator ended and the process event triggers.
                env._urgent.append(self)
                self._ok = isinstance(exc, StopIteration)
                self._value = exc.value if self._ok else exc
                break

            if not isinstance(next_ev, Event):
                # Be strict: yielding a non-event is always a programming bug.
                exc = SimulationError(
                    f"process {self.name!r} yielded non-event {next_ev!r}"
                )
                event = Event(env)
                event._ok = False
                event._value = exc
                continue

            if next_ev.callbacks is not None:
                # Event still pending: subscribe and suspend.
                next_ev.callbacks.append(self._resume)
                break
            # Event already processed: loop immediately with its outcome.
            event = next_ev

        env._active_process = None


class ConditionValue(dict):
    """Mapping of event -> value for fired condition sub-events."""


class Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf` composite events."""

    __slots__ = ("_events", "_fired", "_need")

    def __init__(self, env: "Environment", events: Iterable[Event], need_all: bool) -> None:
        super().__init__(env)
        self._events = list(events)
        self._fired: list[Event] = []
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("cannot mix events from different environments")
        self._need = len(self._events) if need_all else min(1, len(self._events))
        if self._need == 0:
            self.succeed(ConditionValue())
            return
        for ev in self._events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if not event._ok:
            event._defused = True  # owned, before and after the trigger
            if self._value is _PENDING:
                self.fail(event._value)
            return
        if self._value is not _PENDING:
            return
        self._fired.append(event)
        if len(self._fired) >= self._need:
            value = ConditionValue()
            # Preserve the original event order among fired sub-events.
            fired = set(map(id, self._fired))
            for ev in self._events:
                if id(ev) in fired:
                    value[ev] = ev._value
            self.succeed(value)


class AnyOf(Condition):
    """Triggers when any sub-event triggers."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, events, need_all=False)


class AllOf(Condition):
    """Triggers when all sub-events have triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, events, need_all=True)


def gather(env: "Environment", work: Iterable[Generator[Event, Any, Any]]
           ) -> Generator[Event, Any, list]:
    """Run the generators of ``work`` concurrently; returns their values in
    member order, raises the first failure.  Two or more members are spawned
    and awaited through :class:`AllOf`; a single one has nobody to race and
    is run by the caller itself (the module's process rule)."""
    work = list(work)
    if len(work) == 1:
        return [(yield from work[0])]
    procs = [Process(env, member) for member in work]
    if procs:
        yield AllOf(env, procs)
    return [proc._value for proc in procs]


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class Environment:
    """The simulation environment: virtual clock plus the two event lanes."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._urgent: deque[Event] = deque()  # wakeup lane, all at ``now``
        self._queue: list[tuple[float, int, Any]] = []  # Timeouts and TimerTrains
        self._eid = itertools.count()
        self._active_process: Optional[Process] = None
        #: ``run()``'s time bound while it runs: how far a timer train may
        #: fire inline.  Outside ``run()`` a bare ``step()`` fires one element.
        self._horizon = -_INF

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (milliseconds by convention in repro)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories ------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any], name: Optional[str] = None) -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        if self._urgent:
            return self._now
        return self._queue[0][0] if self._queue else _INF

    def step(self) -> None:
        """Process the next scheduled event."""
        if self._urgent:
            event = self._urgent.popleft()
        else:
            try:
                self._now, _eid, event = heappop(self._queue)
            except IndexError:
                raise EmptySchedule() from None
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An unhandled failure: surface it to the caller of run()/step().
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the given time or event; with no argument, run dry.

        Returns the event's value when ``until`` is an event.  A process
        never calls it (the run rule): it ``yield``s the event instead.
        """
        if self._active_process is not None:
            raise ReentrantRunError(
                f"run() called inside process {self._active_process.name!r}:"
                " a process waits by yielding the event")
        stop_event: Optional[Event] = None
        stop_time = _INF
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"until={stop_time} lies in the past (now={self._now})"
                )

        urgent, queue, step = self._urgent, self._queue, self.step
        outer, self._horizon = self._horizon, stop_time
        try:
            while True:
                if stop_event is not None and stop_event.callbacks is None:
                    if not stop_event._ok:
                        raise stop_event._value
                    return stop_event._value
                if not urgent:
                    if not queue:
                        if stop_event is not None:
                            raise SimulationError(
                                "simulation ran dry before the awaited event triggered"
                            )
                        if stop_time != _INF:
                            # Idle until the requested time: the clock still advances.
                            self._now = stop_time
                        return None
                    if queue[0][0] > stop_time:
                        self._now = stop_time
                        return None
                step()
        finally:
            self._horizon = outer
