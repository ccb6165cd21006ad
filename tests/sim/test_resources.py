"""Unit tests for Store, Resource and TokenBucketLimiter."""

import pytest

from repro.sim import Environment, Resource, SimulationError, Store, TokenBucketLimiter


# ---------------------------------------------------------------- Store
def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i in range(3):
            yield env.timeout(1)
            store.put(i)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append((env.now, item))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [(1.0, 0), (2.0, 1), (3.0, 2)]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    out = []

    def consumer(env):
        item = yield store.get()
        out.append(env.now)
        assert item == "late"

    def producer(env):
        yield env.timeout(42)
        store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert out == [42.0]


def test_store_get_nowait():
    env = Environment()
    store = Store(env)
    assert store.get_nowait() is None
    store.put("a")
    store.put("b")
    assert store.get_nowait() == "a"
    assert len(store) == 1


def test_store_multiple_getters_fifo():
    env = Environment()
    store = Store(env)
    served = []

    def consumer(env, tag):
        item = yield store.get()
        served.append((tag, item))

    for tag in ("first", "second"):
        env.process(consumer(env, tag))

    def producer(env):
        yield env.timeout(1)
        store.put(1)
        store.put(2)

    env.process(producer(env))
    env.run()
    assert served == [("first", 1), ("second", 2)]


def test_store_cancel_get():
    env = Environment()
    store = Store(env)
    ev = store.get()
    store.cancel_get(ev)
    store.put("x")
    # the cancelled getter must not consume the item
    assert store.get_nowait() == "x"
    assert not ev.triggered


def test_idle_store_owns_no_deque():
    """Pay-per-use: a never-used store holds no container; serving its one
    dispatcher through the waiter slot allocates none either."""
    env = Environment()
    store = Store(env)
    assert len(store) == 0 and store.get_nowait() is None
    assert store._items is None and store._getters is None
    waiter = store.get()                 # the dispatcher parks in the slot
    store.put("a")                       # ... and is served straight from it
    assert waiter.value == "a"
    assert store._items is None and store._getters is None
    store.put("b")                       # nobody waiting: the buffer appears
    assert list(store.items) == ["b"] and len(store) == 1
    assert store._getters is None


def test_second_getter_queues_behind_the_slot():
    env = Environment()
    store = Store(env)
    first, second, third = store.get(), store.get(), store.get()
    assert store._getter is first and list(store._getters) == [second, third]
    store.put(1)
    assert first.value == 1 and store._getter is second
    store.put(2)
    store.put(3)
    assert (second.value, third.value) == (2, 3) and store._getter is None
    store.put(4)
    assert list(store.items) == [4]


def test_cancel_get_of_slot_waiter_and_of_queued_waiter():
    env = Environment()
    store = Store(env)
    first, second, third = store.get(), store.get(), store.get()
    store.cancel_get(second)             # a queued waiter
    store.cancel_get(first)              # the slot waiter: third moves up
    assert store._getter is third and not store._getters
    store.put("x")
    assert third.value == "x"
    assert not first.triggered and not second.triggered
    store.cancel_get(first)              # unknown / already gone: ignored
    store.cancel_get(third)
    lone = store.get()
    store.cancel_get(lone)               # slot waiter with nobody behind it
    store.put("y")
    assert store.get_nowait() == "y" and not lone.triggered


def test_items_can_be_pushed_back_on_a_never_used_store():
    """StreamTrigger redelivery does ``store.items.appendleft`` — also on a
    store whose every item so far went straight to the waiting dispatcher."""
    env = Environment()
    store = Store(env)
    store.items.appendleft("again")
    assert len(store) == 1 and store.get().value == "again"


# ---------------------------------------------------------------- Resource
def test_resource_serializes_capacity_one():
    env = Environment()
    res = Resource(env, capacity=1)
    trace = []

    def worker(env, tag, hold):
        req = res.request()
        yield req
        trace.append(("start", tag, env.now))
        yield env.timeout(hold)
        trace.append(("end", tag, env.now))
        res.release(req)

    env.process(worker(env, "a", 10))
    env.process(worker(env, "b", 5))
    env.run()
    assert trace == [
        ("start", "a", 0.0),
        ("end", "a", 10.0),
        ("start", "b", 10.0),
        ("end", "b", 15.0),
    ]


def test_resource_capacity_two_runs_pair_in_parallel():
    env = Environment()
    res = Resource(env, capacity=2)
    ends = []

    def worker(env, hold):
        req = res.request()
        yield req
        yield env.timeout(hold)
        ends.append(env.now)
        res.release(req)

    for _ in range(3):
        env.process(worker(env, 10))
    env.run()
    assert ends == [10.0, 10.0, 20.0]


def test_resource_counts():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    assert res.count == 1
    assert res.queued == 1
    res.release(r2)  # cancel a queued request
    assert res.queued == 0
    res.release(r1)
    assert res.count == 0


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_release_unknown_request():
    env = Environment()
    res = Resource(env, capacity=1)
    bogus = env.event()
    with pytest.raises(SimulationError):
        res.release(bogus)


# ------------------------------------------------------- TokenBucketLimiter
def test_limiter_idle_admissions_free():
    env = Environment()
    lim = TokenBucketLimiter(env, rate_per_s=100, burst=5)
    assert lim.admit() == 0.0


def test_limiter_saturation_spaces_ops():
    env = Environment()
    lim = TokenBucketLimiter(env, rate_per_s=10, burst=1)  # 100 ms spacing
    waits = [lim.admit() for _ in range(4)]
    assert waits[0] == 0.0
    # subsequent admissions at t=0 must queue at 100ms intervals
    assert waits[1] == pytest.approx(100.0)
    assert waits[2] == pytest.approx(200.0)
    assert waits[3] == pytest.approx(300.0)


def test_limiter_refills_over_time():
    env = Environment()
    lim = TokenBucketLimiter(env, rate_per_s=10, burst=2)
    assert lim.admit() == 0.0
    assert lim.admit() == 0.0

    def later(env):
        yield env.timeout(1000)  # 1 s -> 10 tokens, capped at burst=2
        assert lim.admit() == 0.0
        assert lim.admit() == 0.0
        assert lim.admit() > 0.0

    env.process(later(env))
    env.run()


def test_limiter_rejects_bad_rate():
    env = Environment()
    with pytest.raises(SimulationError):
        TokenBucketLimiter(env, rate_per_s=0)
