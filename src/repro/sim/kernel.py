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
  process start and termination, ``interrupt``);
* the *timeout heap*, ordered by ``(time, eid)``, holding ``Timeout``s only.

``step()`` drains the wakeup lane before it touches the heap.  That is the
one-heap order because URGENT events are only ever scheduled with delay 0 and
the clock only advances when a timeout is popped — which needs an empty lane.
So every pending wakeup is at ``now``, ahead of every NORMAL event of the same
instant by priority and of every later one by time, and among themselves
wakeups are ordered by eid, i.e. first in, first out.  ``peek()`` is ``now``
while the lane is non-empty.

**Interrupt rule.**  ``Process.interrupt()`` only schedules a wakeup.  The
process leaves the event it waits on when that wakeup is *delivered* (SimPy's
rule), not when ``interrupt()`` is called: in between it may have been resumed
and have parked on another event, and that one is the subscription to drop.

**Failure rule.**  A failed event nobody handled surfaces from ``run()``.  A
waiter handles it by being resumed with it, and a condition owns its members'
failures: the first fails the condition, one that arrives after the condition
triggered stays silent — its waiter already has its answer.

**Process rule.**  A process is for concurrency.  A caller that would spawn
one coroutine and wait for it at once runs it with ``yield from``: resumed
from the heap it finds the wakeup lane empty, so the ``Initialize``, the
termination and the wakeup it does not pay for had nothing between them and
the coroutine's first and last segment.  Fan-out is :func:`gather`.
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
    "Process",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "gather",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (negative delays, double triggers...)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


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

    def trigger(self, event: "Event") -> None:
        """Chain trigger: adopt the outcome of another (triggered) event."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

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

    __slots__ = ("_generator", "_target", "name")

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
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self.triggered:
            raise SimulationError(f"{self} has terminated and cannot be interrupted")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._interrupted)
        self.env._urgent.append(event)

    def _interrupted(self, event: Event) -> None:
        # Unsubscribe from the event the process is waiting on *now*, so its
        # later firing does not resume a generator that has moved on.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._resume(event)

    # -- generator driving --------------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        send = self._generator.send
        env._active_process = self
        self._target = None
        while True:
            try:
                if event._ok:
                    next_ev = send(event._value)
                else:
                    event._defused = True
                    next_ev = self._generator.throw(event._value)
            except BaseException as exc:
                # The generator ended and the process event triggers.  Once
                # triggered it is in the wakeup lane and must not enter twice
                # (a second interrupt can land on a finished generator).
                if self._value is _PENDING:
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
                self._target = next_ev
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
        self._queue: list[tuple[float, int, Timeout]] = []  # timeout heap
        self._eid = itertools.count()
        self._active_process: Optional[Process] = None

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

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

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

        Returns the event's value when ``until`` is an event.
        """
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
