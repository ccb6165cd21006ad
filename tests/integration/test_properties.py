"""Property-based tests (hypothesis) on kernel, expressions, queues, locks."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud import Cloud, OpContext
from repro.cloud.expressions import (
    Add,
    Attr,
    ListAppend,
    ListPopHead,
    ListRemove,
    Set,
    apply_updates,
    item_size_kb,
)
from repro.primitives import AtomicCounter, TimedLock
from repro.sim import Environment

FAST = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
SLOW = settings(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# ------------------------------------------------------------------ kernel
@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50))
@FAST
def test_kernel_fires_timeouts_in_time_order(delays):
    env = Environment()
    fired = []

    def proc(env, d):
        yield env.timeout(d)
        fired.append(env.now)

    for d in delays:
        env.process(proc(env, d))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                max_size=30))
@FAST
def test_kernel_clock_never_goes_backwards(delays):
    env = Environment()
    observed = []

    def proc(env):
        for d in delays:
            yield env.timeout(d)
            observed.append(env.now)

    env.process(proc(env))
    env.run()
    assert observed == sorted(observed)


# -------------------------------------------------------------- expressions
@given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=30))
@FAST
def test_add_accumulates_like_sum(deltas):
    item = {}
    apply_updates(item, [Add("n", d) for d in deltas])
    assert item.get("n", 0) == sum(deltas)


@given(st.lists(st.integers(), max_size=20),
       st.lists(st.integers(), max_size=20))
@FAST
def test_list_append_concatenates(first, second):
    item = {}
    apply_updates(item, [ListAppend("l", first), ListAppend("l", second)])
    assert item["l"] == first + second


@given(st.lists(st.integers(min_value=0, max_value=5), max_size=15),
       st.lists(st.integers(min_value=0, max_value=5), max_size=5))
@FAST
def test_list_remove_drops_first_occurrences(base, to_remove):
    item = {"l": list(base)}
    apply_updates(item, [ListRemove("l", to_remove)])
    expected = list(base)
    for v in to_remove:
        if v in expected:
            expected.remove(v)
    assert item["l"] == expected


@given(st.lists(st.integers(), max_size=15),
       st.integers(min_value=0, max_value=20))
@FAST
def test_list_pop_head_is_slice(base, count):
    item = {"l": list(base)}
    apply_updates(item, [ListPopHead("l", count)])
    assert item["l"] == base[count:]


@given(st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=-10**6, max_value=10**6))
@FAST
def test_comparison_conditions_match_python(threshold, value):
    item = {"v": value}
    assert (Attr("v") < threshold).evaluate(item) == (value < threshold)
    assert (Attr("v") >= threshold).evaluate(item) == (value >= threshold)
    assert (Attr("v") == threshold).evaluate(item) == (value == threshold)


@given(st.binary(max_size=4096), st.text(max_size=200))
@FAST
def test_item_size_monotone_in_payload(blob, text):
    small = item_size_kb({"d": blob})
    bigger = item_size_kb({"d": blob, "t": text})
    assert bigger >= small
    assert small >= len(blob) / 1024.0


# ------------------------------------------------------------------ queues
@given(st.lists(st.integers(min_value=0, max_value=999), min_size=1,
                max_size=60),
       st.sets(st.integers(min_value=1, max_value=30)))
@SLOW
def test_fifo_order_preserved_under_crashes(messages, crash_invocations):
    """FIFO delivery with transient handler crashes never reorders."""
    cloud = Cloud.aws(seed=13)
    received = []

    def handler(fctx, batch):
        yield fctx.env.timeout(1)
        received.extend(batch)
        return None

    q = cloud.fifo_queue("q", max_receive=None)
    fn = cloud.deploy_function("h", handler)
    cloud.runtime.plan_crash(*(f"h:{i}:start" for i in crash_invocations))
    q.attach(fn)
    ctx = OpContext()
    for m in messages:
        q.send_nowait(ctx, m)
    cloud.run(until=600_000)
    assert received == messages


@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=1, max_value=6))
@SLOW
def test_counter_concurrent_total(n_workers, per_worker):
    cloud = Cloud.aws(seed=21)
    kv = cloud.kv()
    kv.create_table("t")
    counter = AtomicCounter(kv, "t", "c")
    ctx = OpContext()

    def worker():
        for _ in range(per_worker):
            yield from counter.increment(ctx)

    for _ in range(n_workers):
        cloud.env.process(worker())
    cloud.run(until=600_000)
    assert cloud.run_process(counter.get(ctx)) == n_workers * per_worker


@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=3000))
@SLOW
def test_lock_mutual_exclusion_with_random_hold_times(n_contenders, hold_ms):
    """No two holders' critical sections may overlap unless a lease expired."""
    cloud = Cloud.aws(seed=5)
    kv = cloud.kv()
    kv.create_table("t")
    lock = TimedLock(kv, "t", max_hold_ms=2000)
    ctx = OpContext()
    intervals = []

    def contender():
        handle = yield from lock.acquire(ctx, "/n")
        if handle is None:
            return
        start = cloud.now
        yield cloud.env.timeout(min(hold_ms, 1900))  # stay within the lease
        released = yield from lock.release(ctx, handle)
        if released:
            intervals.append((start, cloud.now))

    for _ in range(n_contenders):
        cloud.env.process(contender())
    cloud.run(until=600_000)
    intervals.sort()
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert e1 <= s2  # no overlap among successful lease-respecting holds
