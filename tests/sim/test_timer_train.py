"""The timer train: N timers behind one heap entry, firing as N Timeouts would."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, SimulationError, TimerTrain
from repro.sim.kernel import EmptySchedule
from ..helpers.stepcount import StepCounting


def _logger(env, log, who):
    return lambda value: log.append((env.now, who, value))


def test_elements_fire_at_now_plus_delay_in_time_order():
    env = Environment()
    env.run(until=10)
    log = []
    TimerTrain(env, [3.0, 1.0, 2.0], ["a", "b", "c"], _logger(env, log, "train"))
    env.run()
    assert log == [(11.0, "train", "b"), (12.0, "train", "c"), (13.0, "train", "a")]


def test_equal_time_ties_with_timeouts_follow_eids():
    """Timeouts made before the train come first, those made after it come
    last, and equal-time elements keep their order: eids were reserved."""
    env = Environment()
    log = []
    env.timeout(1, "before").callbacks.append(lambda ev: log.append(ev.value))
    TimerTrain(env, [1, 0.5, 1, 1], ["t0", "t1", "t2", "t3"], log.append)
    env.timeout(1, "after").callbacks.append(lambda ev: log.append(ev.value))
    env.timeout(0.5, "after-early").callbacks.append(lambda ev: log.append(ev.value))
    env.run()
    assert log == ["t1", "after-early", "before", "t0", "t2", "t3", "after"]


def test_an_urgent_event_an_element_raises_runs_before_the_next_element():
    env = Environment()
    log = []

    def on_element(value):
        log.append(("element", value))
        signal = env.event()
        signal.callbacks.append(lambda ev: log.append(("wakeup", ev.value)))
        signal.succeed(value)

    TimerTrain(env, [1, 1, 2], [0, 1, 2], on_element)
    env.run()
    assert log == [("element", 0), ("wakeup", 0), ("element", 1), ("wakeup", 1),
                   ("element", 2), ("wakeup", 2)]


def test_a_timeout_an_element_makes_fires_in_its_place():
    env = Environment()
    log = []

    def on_element(value):
        log.append(value)
        if value == "a":
            env.timeout(1, "between").callbacks.append(lambda ev: log.append(ev.value))

    TimerTrain(env, [1, 3], ["a", "b"], on_element)
    env.run()
    assert log == ["a", "between", "b"]


def test_run_until_fires_nothing_past_its_bound():
    env = Environment()
    log = []
    TimerTrain(env, [1, 2, 3, 3, 5], list("abcde"), _logger(env, log, "t"))
    env.run(until=3)
    assert [value for _now, _who, value in log] == ["a", "b", "c", "d"]
    assert env.now == 3.0 and env.peek() == 5.0
    env.run(until=4)
    assert len(log) == 4 and env.now == 4.0
    env.run()
    assert log[-1] == (5.0, "t", "e")


def test_a_bare_step_fires_one_element():
    env = Environment()
    log = []
    TimerTrain(env, [1, 1, 2], [0, 1, 2], log.append)
    env.step()
    assert log == [0] and env.now == 1.0 and env.peek() == 1.0
    env.step()
    assert log == [0, 1] and env.peek() == 2.0
    env.step()
    assert log == [0, 1, 2]
    with pytest.raises(EmptySchedule):
        env.step()


def test_under_run_a_train_alone_is_one_step():
    env = StepCounting()
    log = []
    TimerTrain(env, [float(d % 7) for d in range(1000)], list(range(1000)), log.append)
    env.run()
    assert env.steps == 1 and len(log) == 1000 and env.now == 6.0


def test_an_exception_in_an_element_surfaces_from_run_and_the_rest_still_fire():
    env = Environment()
    log = []

    def on_element(value):
        if value == "boom":
            raise ValueError(value)
        log.append(value)

    TimerTrain(env, [1, 2, 3], ["a", "boom", "c"], on_element)
    with pytest.raises(ValueError, match="boom"):
        env.run()
    assert log == ["a"] and env.now == 2.0
    env.run()
    assert log == ["a", "c"] and env.now == 3.0


def test_misuse_is_refused():
    env = Environment()
    with pytest.raises(SimulationError, match="negative delay"):
        TimerTrain(env, [1, -1], ["a", "b"], print)
    with pytest.raises(SimulationError, match="one value per delay"):
        TimerTrain(env, [1, 2], ["a"], print)
    TimerTrain(env, [], [], print)  # empty: schedules nothing
    assert env.peek() == float("inf")


def _scene(env, seed, as_train):
    """Trains of timers among timeouts, processes and wakeups; each train
    either is one :class:`TimerTrain` or is spelled as separate timeouts.
    Returns what fired, in order, with the instant it fired at."""
    rng = random.Random(seed)
    log = []

    def arm(who, delays):
        def on_element(value):
            log.append((env.now, who, value))
            if value % 3 == 0:  # a wakeup between two elements
                env.event().succeed().callbacks.append(
                    lambda _ev: log.append((env.now, who, "woken", value)))
            if value % 4 == 1:  # a timeout that may land among the elements
                env.timeout(rng.choice((0, 0.5, 1))).callbacks.append(
                    lambda _ev: log.append((env.now, who, "timeout", value)))

        values = list(range(len(delays)))
        if as_train:
            TimerTrain(env, delays, values, on_element)
        else:
            for delay, value in zip(delays, values):
                env.timeout(delay, value).callbacks.append(
                    lambda ev: on_element(ev.value))

    def worker(name):
        for n in range(6):
            yield env.timeout(rng.choice((0, 0.5, 1, 2)))
            log.append((env.now, name, n))
            if n % 2 == 0:
                arm(f"{name}.{n}", [rng.choice((0, 0.5, 1, 1.5, 3)) for _ in range(rng.randrange(6))])

    for w in range(4):
        env.process(worker(f"w{w}"))
    arm("top", [rng.choice((0, 1, 2, 2, 4)) for _ in range(8)])
    for stop in (0, 1, 2.5, 4):
        env.run(until=stop)
        log.append((env.now, "driver", "stopped"))
    if seed % 2:
        env.run()
    else:  # bare steps: one element each
        while True:
            try:
                env.step()
            except EmptySchedule:
                break
    return log


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_train_fires_as_its_timeouts_would(seed):
    got = _scene(Environment(), seed, as_train=True)
    want = _scene(Environment(), seed, as_train=False)
    assert got == want
    assert len(got) > 20
