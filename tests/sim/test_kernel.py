"""Unit tests for the DES kernel."""

import random
from heapq import heappop, heappush

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    ReentrantRunError,
    Resource,
    SimulationError,
    Store,
    gather,
)
from repro.sim.kernel import NORMAL, URGENT, EmptySchedule
from ..helpers.stepcount import StepCounting


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(5)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [5.0, 7.5]


def test_timeout_value_is_delivered():
    env = Environment()
    out = []

    def proc(env):
        v = yield env.timeout(1, value="hello")
        out.append(v)

    env.process(proc(env))
    env.run()
    assert out == ["hello"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3)
        return 42

    p = env.process(proc(env))
    assert env.run(until=p) == 42


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10)

    env.process(proc(env))
    env.run(until=25)
    assert env.now == 25


def test_run_until_past_raises():
    env = Environment()
    env.run(until=0)
    def proc(env):
        yield env.timeout(10)
    env.process(proc(env))
    env.run(until=5)
    with pytest.raises(SimulationError):
        env.run(until=1)


@pytest.mark.parametrize("until", [None, 5.0, "event"])
def test_run_inside_a_process_raises_and_the_process_goes_on(until):
    env = Environment()
    log = []

    def proc(env):
        me = env.active_process
        with pytest.raises(ReentrantRunError):
            env.run(until=env.event() if until == "event" else until)
        log.append((env.now, env.active_process is me))
        yield env.timeout(10)
        log.append((env.now, env.active_process is me))

    def careless(env):
        yield env.timeout(20)
        env.run(until=until)

    env.process(proc(env))
    env.process(careless(env))
    # Not an ``Exception``: no handler's ``except Exception`` swallows it.
    with pytest.raises(ReentrantRunError):
        env.run()
    assert log == [(0, True), (10, True)]
    assert env.now == 20 and env.active_process is None


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    out = []

    def waiter(env):
        v = yield ev
        out.append((env.now, v))

    def firer(env):
        yield env.timeout(7)
        ev.succeed("payload")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert out == [(7.0, "payload")]


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def firer(env):
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_unhandled_process_exception_propagates():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_awaiting_failed_process_reraises():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        raise KeyError("inner")

    def parent(env):
        try:
            yield env.process(child(env))
        except KeyError:
            return "caught"
        return "missed"

    p = env.process(parent(env))
    assert env.run(until=p) == "caught"


def test_fifo_order_of_simultaneous_timeouts():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(5)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_any_of_returns_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(3, value="fast")
        t2 = env.timeout(9, value="slow")
        result = yield AnyOf(env, [t1, t2])
        return (env.now, list(result.values()))

    p = env.process(proc(env))
    now, values = env.run(until=p)
    assert now == 3.0
    assert values == ["fast"]


def test_all_of_waits_for_all():
    env = Environment()

    def proc(env):
        t1 = env.timeout(3, value=1)
        t2 = env.timeout(9, value=2)
        result = yield AllOf(env, [t1, t2])
        return (env.now, sorted(result.values()))

    p = env.process(proc(env))
    now, values = env.run(until=p)
    assert now == 9.0
    assert values == [1, 2]


def test_all_of_empty_triggers_immediately():
    env = Environment()

    def proc(env):
        yield AllOf(env, [])
        return env.now

    p = env.process(proc(env))
    assert env.run(until=p) == 0.0


def test_process_accepts_generators_and_generator_likes_only():
    env = Environment()

    class GeneratorLike:
        """Not a GeneratorType, but speaks the protocol (send/throw)."""

        def __init__(self):
            self.inner = (env.timeout(1) for _ in range(1))

        def send(self, value):
            return self.inner.send(value)

        def throw(self, *exc):
            return self.inner.throw(*exc)

    proc = env.process(GeneratorLike(), name="like")
    env.run()
    assert proc.triggered and proc.name == "like"
    for bogus in (None, 42, [env.timeout(1)], lambda: None):
        with pytest.raises(SimulationError, match="not a generator"):
            env.process(bogus)


def test_yield_non_event_is_error():
    env = Environment()

    def proc(env):
        yield 42  # type: ignore[misc]

    env.process(proc(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_run_until_event_with_dry_schedule_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError, match="ran dry"):
        env.run(until=ev)


def test_nested_yield_from_processes():
    env = Environment()

    def inner(env):
        yield env.timeout(2)
        return 10

    def outer(env):
        a = yield from inner(env)
        b = yield from inner(env)
        return a + b

    p = env.process(outer(env))
    assert env.run(until=p) == 20
    assert env.now == 4.0


def test_immediate_event_yield():
    """Yielding an already-processed event resumes without rescheduling."""
    env = Environment()

    def proc(env):
        ev = env.event()
        ev.succeed("x")
        yield env.timeout(0)  # let the event be processed
        v = yield ev
        return v

    p = env.process(proc(env))
    assert env.run(until=p) == "x"


# ------------------------------------------------- two-lane scheduler order
class _OneHeapLane:
    """Stands in for the wakeup deque: files URGENT events on the one heap."""

    def __init__(self, env):
        self.env = env

    def append(self, event):
        env = self.env
        heappush(env._heap, (env._now, URGENT, next(env._eid), event))


class ReferenceEnvironment(Environment):
    """The reference scheduler: one heap ordered by (time, priority, eid).

    Shares every event class with the kernel; only where events wait and
    which one fires next differ, which is what the soup below compares.
    """

    def __init__(self):
        super().__init__()
        self._heap = []
        self._urgent = _OneHeapLane(self)

    def _refile(self):
        while self._queue:  # Timeouts push (when, eid, event) there
            when, eid, event = heappop(self._queue)
            heappush(self._heap, (when, NORMAL, eid, event))

    def peek(self):
        self._refile()
        return self._heap[0][0] if self._heap else float("inf")

    def step(self):
        self._refile()
        if not self._heap:
            raise EmptySchedule()
        self._now, _prio, _eid, event = heappop(self._heap)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until=None):
        stop_event = until if isinstance(until, Event) else None
        stop_time = float("inf") if until is None or stop_event else float(until)
        while True:
            if stop_event is not None and stop_event.processed:
                if not stop_event.ok:
                    raise stop_event.value
                return stop_event.value
            nxt = self.peek()
            if nxt == float("inf") and stop_event is not None:
                raise SimulationError("simulation ran dry before the awaited event triggered")
            if nxt > stop_time or nxt == float("inf"):
                if stop_time != float("inf"):
                    self._now = stop_time
                return None
            self.step()


def _counting(base):
    """``base`` with a count of ``step()`` entries, i.e. of fired events."""

    class Counting(base):
        steps = 0

        def step(self):
            self.steps += 1
            super().step()

    return Counting()


_DELAYS = (0, 0, 0, 1, 1, 2, 2.5, 2.5, 5)
_ACTIONS = ("timeout", "timeout", "put", "get", "get_or_timeout", "hold",
            "succeed", "fail", "wait", "any", "all", "stall", "spawn")


def _soup(env, seed, mode):
    """Run a seeded process soup on ``env``; return what fired, in order.

    Every line carries the number of ``step()`` entries so far, which pins
    each resumption and callback to its position in the firing order.
    """
    rng = random.Random(seed)
    log = []

    def note(who, what, value=None):
        if isinstance(value, dict):  # a ConditionValue: which sub-events fired
            value = sorted(map(repr, value.values()))
        log.append((env.steps, env.now, who, what, repr(value)))

    store, resource = Store(env), Resource(env, capacity=2)
    signals = [env.event() for _ in range(6)]
    for i, signal in enumerate(signals):
        signal.callbacks.append(lambda ev, i=i: note(f"signal{i}", "fired", ev._ok))
    workers = []

    def plan(length):
        return [(rng.choice(_ACTIONS), rng.choice(_DELAYS), rng.choice(_DELAYS),
                 rng.randrange(len(signals)), rng.randrange(len(signals)))
                for _ in range(length)]

    def worker(name, script):
        note(name, "start")
        for n, (action, d1, d2, i, j) in enumerate(script):
            try:
                if action == "timeout":
                    note(name, n, (yield env.timeout(d1, value=d1)))
                elif action == "put":
                    store.put((name, n))
                elif action == "get":
                    note(name, n, (yield store.get()))
                elif action == "get_or_timeout":
                    get = store.get()
                    got = yield AnyOf(env, [get, env.timeout(d1, value="late")])
                    if not get.triggered:
                        store.cancel_get(get)
                    note(name, n, got)
                elif action == "hold":
                    request = resource.request()
                    yield request
                    note(name, n, "acquired")
                    yield env.timeout(d1)
                    resource.release(request)
                elif action == "succeed" and not signals[i].triggered:
                    signals[i].succeed((name, n))
                elif action == "fail" and not signals[i].triggered:
                    signals[i].fail(ValueError(f"{name}.{n}"))
                    signals[i].defused()  # nobody may be waiting for it
                elif action == "wait":
                    note(name, n, (yield signals[i]))
                elif action == "any":
                    note(name, n, (yield AnyOf(
                        env, [signals[i], signals[j], env.timeout(d1, value="t")])))
                elif action == "all":
                    note(name, n, (yield env.all_of(
                        [env.timeout(d1, value="a"), signals[i], env.timeout(d2, value="b")])))
                elif action == "stall":
                    note(name, n, "stalled")
                    yield env.event()  # nobody triggers it: the worker ends here
                elif action == "spawn":
                    child = env.process(worker(f"{name}.{n}", plan(3)))
                    note(name, n, (yield child))
            except ValueError as exc:
                note(name, n, ("failed", str(exc)))
        return name

    def ticker():
        """Keeps the soup from settling: feeds the store, fires the signals."""
        for tick in range(24):
            yield env.timeout(1.5)
            store.put(("tick", tick))
            if tick % 4 == 3 and not signals[tick // 4].triggered:
                signals[tick // 4].succeed(("tick", tick))

    for w in range(8):
        workers.append(env.process(worker(f"w{w}", plan(12))))
    env.process(ticker())

    def drive(until=None):
        """``run``, noting each failure nobody waited for and going on."""
        while True:
            try:
                return note("driver", "ran", env.run(until=until))
            except SimulationError as exc:  # ran dry before ``until`` triggered
                return note("driver", "dry", str(exc))
            except ValueError as exc:
                note("driver", "surfaced", str(exc))
                if isinstance(until, Event) and until.processed and not until.ok:
                    return None  # the awaited event itself failed

    if mode == "times":
        # Stop at instants events collide on, poke the soup from outside so
        # that wakeups are pending while the clock stands, and go on.
        for stop in (0, 0, 1, 2.5, 2.5, 4, 7.5, 30):
            drive(stop)
            note("driver", "stopped", env.peek())
            untriggered = [s for s in signals if not s.triggered]
            if untriggered:
                untriggered[0].succeed("driver")
                store.put(("driver", stop))
                assert env.peek() == env.now == stop  # the lane is not empty
    elif mode == "events":
        for target in (workers[3], signals[2], workers[5], signals[4]):
            drive(target)
            note("driver", "peek", env.peek())
    drive()
    note("driver", "end", env.peek())
    return log


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["dry", "times", "events"]))
def test_firing_order_matches_the_one_heap_reference(seed, mode):
    got = _soup(_counting(Environment), seed, mode)
    want = _soup(_counting(ReferenceEnvironment), seed, mode)
    assert got == want
    assert len(got) > 30  # the soup did run


def test_soup_exercises_every_ingredient():
    """Guards the property test against a soup that quietly stopped mixing."""
    seen = set()
    for seed in range(10):
        for mode in ("dry", "times", "events"):
            for _steps, _now, _who, what, value in _soup(_counting(Environment), seed, mode):
                seen.update((what, value.split(",")[0]))
    assert {"'stalled'", "('failed'", "'acquired'", """["'late'"]""", "('tick'",
            "fired", "surfaced", "stopped", "dry", "ran"} <= seen


def test_peek_is_now_while_a_wakeup_is_pending():
    env = Environment()
    env.timeout(5)
    assert env.peek() == 5.0
    env.run(until=2)
    env.event().succeed()
    assert env.peek() == env.now == 2.0
    env.step()  # the wakeup, not the timeout: the clock stands
    assert env.now == 2.0 and env.peek() == 5.0
    env.step()
    assert env.now == 5.0 and env.peek() == float("inf")


def test_step_on_an_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()
    env.timeout(1)
    env.run()
    with pytest.raises(EmptySchedule):
        env.step()


def test_run_until_time_holds_back_later_timeouts_only():
    env = Environment()
    fired = []
    for delay in (3, 1, 3, 7):
        env.timeout(delay, value=delay).callbacks.append(lambda ev: fired.append(ev.value))
    env.run(until=3)
    assert fired == [1, 3, 3] and env.now == 3.0 and env.peek() == 7.0


def test_step_is_entered_exactly_once_per_processed_event():
    env = _counting(Environment)
    fired = []

    def proc(env):
        yield env.timeout(1)
        yield env.timeout(0)

    done = env.process(proc(env))  # Initialize + 2 timeouts + termination
    done.callbacks.append(fired.append)
    for delay in (0, 1, 1, 4):
        env.timeout(delay).callbacks.append(fired.append)
    for _ in range(3):
        env.event().succeed().callbacks.append(fired.append)
    env.run(until=2)
    assert (env.steps, len(fired)) == (4 + 3 + 3, 1 + 3 + 3)
    env.run()
    assert (env.steps, len(fired)) == (4 + 4 + 3, 1 + 4 + 3)


# ------------------------------------- a process is its own completion handle
def _announce(body, done):
    """The pairing rule 1 retires: an ``Event`` triggered as the last act of
    the process whose end it announces."""
    try:
        value = yield from body
    except ValueError as exc:
        done.fail(exc)
        return
    done.succeed(value)


_HANDLE_ACTIONS = ("timeout", "timeout", "wait", "wait", "any", "all",
                   "callback", "spawn", "spawn_and_forget", "run", "run")
_LEAF_ACTIONS = ("timeout", "callback")
_TOP_WORKERS = 6


def _completion_soup(env, seed, paired, run="spawned"):
    """Workers that end by returning or raising, watched through their
    completion handle: an announcing ``Event`` (``paired``) or the ``Process``
    itself.  Returns what resumed and was called back, each line pinned to
    its position among the events that fired for somebody.

    The ``run`` action is "spawn one child and wait for it at once", reached
    from the heap: ``spawned`` makes the process, ``inline`` runs the child
    with ``yield from`` and counts the two events it did not schedule into
    the positions, ``late`` is ``inline`` with the child's outcome reaching
    its caller one wakeup later."""
    rng = random.Random(seed)
    log = []
    handles = []
    finished = [0]
    unscheduled = [0]  # Initialize + termination of every inlined child
    children = [0]

    def note(who, what, value=None):
        if isinstance(value, dict):
            value = sorted(map(repr, value.values()))
        log.append((env.effective + unscheduled[0], env.now, who, what,
                    repr(value)))

    def body_of(name, own, length, actions=_LEAF_ACTIONS):
        script = [(rng.choice(actions), rng.choice(_DELAYS),
                   rng.randrange(64), rng.randrange(64)) for _ in range(length)]
        return worker(name, own, script, fails=rng.random() < 0.3)

    def run_child(body):
        """A child only its caller knows: nobody else holds its handle."""
        if run == "spawned":
            return (yield env.process(body))
        unscheduled[0] += 1
        try:
            return (yield from body)
        finally:
            unscheduled[0] += 1
            if run == "late":
                yield env.event().succeed()

    def start(name, length, actions=_LEAF_ACTIONS):
        body = body_of(name, len(handles), length, actions)
        if paired:
            handle = env.event()
            env.process(_announce(body, handle))
        else:
            handle = env.process(body)
        if rng.random() < 0.5:
            handle.defused()  # a failure nobody waits for stays silent
        handles.append(handle)
        return handle

    def worker(name, own, script, fails):
        """Waits only for earlier top-level workers and for spawned ones,
        which wait for nobody: no cycle, so every worker ends."""
        note(name, "start")
        for n, (action, delay, i, j) in enumerate(script):
            others = [h for x, h in enumerate(handles)
                      if x < own or x >= _TOP_WORKERS and x != own]
            if not others:
                action = "timeout"
            else:
                a, b = others[i % len(others)], others[j % len(others)]
            try:
                if action == "timeout":
                    note(name, n, (yield env.timeout(delay, value=delay)))
                elif action == "wait":
                    note(name, n, (yield a))
                elif action == "any":
                    note(name, n, (yield AnyOf(
                        env, [a, b, env.timeout(delay, value="t")])))
                elif action == "all":
                    note(name, n, (yield env.all_of(
                        [a, env.timeout(delay, value="t"), b])))
                elif action == "callback" and not a.processed:
                    a.callbacks.append(
                        lambda ev, n=n: note(name, n, ("called back", ev._ok)))
                elif action == "spawn":
                    note(name, n, (yield start(f"{name}.{n}", 2)))
                elif action == "spawn_and_forget":
                    start(f"{name}.{n}", 2)
                elif action == "run":
                    yield env.timeout(delay)  # resumed from the heap
                    child = body_of(f"{name}.{n}", -1, 2)
                    children[0] += 1
                    note(name, n, (yield from run_child(child)))
            except ValueError as exc:
                note(name, n, ("failed", str(exc)))
        finished[0] += 1
        if fails:
            raise ValueError(name)
        return name

    for w in range(_TOP_WORKERS):
        start(f"w{w}", 8, _HANDLE_ACTIONS)

    def drive(until=None):
        while True:
            try:
                return note("driver", "ran", env.run(until=until))
            except ValueError as exc:
                note("driver", "surfaced", str(exc))
                if until is not None and until.processed and not until.ok:
                    return None  # the awaited handle itself failed

    for k in (3, 1, 5):
        drive(handles[k])
    drive()
    assert finished[0] == len(handles) + children[0]
    note("driver", "end", env.peek())
    return log, len(handles), children[0]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_waiting_on_the_process_is_waiting_on_its_last_act(seed):
    """Order proof of "a coroutine's completion handle is its process": the
    announcing event and the generator's termination enter the wakeup lane
    back to back, the second fires for nobody, so moving the waiters onto
    the termination changes nothing anybody can observe — same resumptions,
    same callbacks, same values, same positions among the effective events;
    only the idle termination, one per worker, is gone."""
    paired_env, direct_env = StepCounting(), StepCounting()
    paired, workers, _run = _completion_soup(paired_env, seed, paired=True)
    direct, _workers, _run = _completion_soup(direct_env, seed, paired=False)
    assert direct == paired
    assert len(direct) > 30
    assert direct_env.effective == paired_env.effective
    assert direct_env.idle == paired_env.idle - workers


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_running_the_one_coroutine_you_wait_for_is_spawning_it(seed):
    """Order proof of "a process is for concurrency": a caller resumed from
    the heap finds the wakeup lane empty, so the child's ``Initialize`` and
    first segment, and its last segment, termination and the caller's resume,
    fire back to back — running the child with ``yield from`` changes nothing
    anybody can observe (same lines, same instants, same positions once the
    two unscheduled events per child are counted in), failures included.  A
    variant that hands the outcome over one wakeup late is told apart."""
    spawned_env, inline_env = StepCounting(), StepCounting()
    spawned, _workers, children = _completion_soup(spawned_env, seed, False)
    inline, _workers, _run = _completion_soup(inline_env, seed, False, "inline")
    assert inline == spawned
    assert inline_env.effective == spawned_env.effective - 2 * children
    assert inline_env.idle == spawned_env.idle
    late, _workers, _run = _completion_soup(StepCounting(), seed, False, "late")
    assert (late != spawned) == (children > 0)


def test_completion_soup_exercises_every_ingredient():
    """Guards the property against a soup that quietly stopped mixing: waits,
    any/all members, plain callbacks, ``run(until=handle)`` targets, failures
    with a waiter and failures nobody waited for."""
    whats, values = set(), set()
    for seed in range(20):
        log, _workers, children = _completion_soup(StepCounting(), seed, False)
        assert children
        whats.update(what for *_pos, what, _value in log)
        values.update(value.split(",")[0] for *_pos, _what, value in log)
    assert {"surfaced", "ran", "start", "end"} <= whats
    assert {"('failed'", "('called back'", """["'t'"]""", "'w3'", "None"} <= values


def test_a_failed_process_surfaces_unless_defused_or_awaited():
    def failing(env):
        yield env.timeout(1)
        raise ValueError("boom")

    env = Environment()
    env.process(failing(env)).defused()
    env.run()  # silent: the handle was pre-defused

    env = Environment()
    env.process(failing(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


# ------------------------------------------- who owns a failure; fan-out
def _ends(env, delay, value=None, error=None):
    yield env.timeout(delay)
    if error is not None:
        raise ValueError(error)
    return value


@pytest.mark.parametrize("condition", [AllOf, AnyOf])
def test_a_condition_owns_its_members_failures_after_it_triggered(condition):
    """The waiter has its answer after the first failure; the member that
    fails later fails for nobody and must not escape ``run()``."""
    env = Environment()
    members = [env.process(_ends(env, 1, error="first")),
               env.process(_ends(env, 2, error="second"))]
    caught = []

    def waiter():
        try:
            yield condition(env, members)
        except ValueError as exc:
            caught.append((env.now, str(exc)))

    env.process(waiter())
    env.run()
    assert caught == [(1.0, "first")]
    assert env.now == 2.0 and not members[1].ok


def test_any_of_owns_a_failure_after_a_success():
    env = Environment()
    late = env.process(_ends(env, 2, error="late"))
    first = env.run(until=AnyOf(env, [env.timeout(1, value="t"), late]))
    assert list(first.values()) == ["t"]
    env.run()
    assert env.now == 2.0


def _gathered(env, work):
    """(value or error of ``gather(env, work)``, instant, events it took)."""
    env.__class__ = StepCounting
    outcome = []

    def caller():
        yield env.timeout(0)
        steps = env.steps
        try:
            outcome.append((yield from gather(env, work)))
        except ValueError as exc:
            outcome.append(str(exc))
        outcome.extend((env.now, env.steps - steps))

    env.run(until=env.process(caller()))
    return tuple(outcome)


def test_gather_of_nothing_takes_no_event():
    env = Environment()
    assert _gathered(env, []) == ([], 0.0, 0)


def test_gather_runs_a_single_member_in_the_caller():
    """One timeout: no ``Initialize``, no termination, no ``AllOf``."""
    env = Environment()
    assert _gathered(env, [_ends(env, 3, "only")]) == (["only"], 3.0, 1)
    env = Environment()
    assert _gathered(env, [_ends(env, 3, error="only")]) == ("only", 3.0, 1)


def test_gather_runs_members_concurrently_values_in_member_order():
    env = Environment()
    work = (_ends(env, d, f"m{d}") for d in (5, 1, 3))  # any iterable
    values, now, events = _gathered(env, work)
    assert (values, now) == (["m5", "m1", "m3"], 5.0)
    assert events == 3 * 3 + 1  # start, timeout, end of each; the AllOf


def test_gather_raises_the_first_failure_and_keeps_later_ones_silent():
    env = Environment()
    ran = []

    def member(delay, error):
        try:
            yield from _ends(env, delay, error=error)
        finally:
            ran.append(delay)

    outcome = _gathered(env, [member(4, "slow"), member(2, "fast"),
                              member(3, None)])
    assert outcome[:2] == ("fast", 2.0)
    env.run()  # the other members run to their end; "slow" fails for nobody
    assert ran == [2, 3, 4] and env.now == 4.0
