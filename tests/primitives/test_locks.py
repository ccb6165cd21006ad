"""Unit tests for the timed lock."""

import pytest

from repro.cloud import Cloud, OpContext, Set
from repro.primitives import TimedLock


@pytest.fixture
def cloud():
    return Cloud.aws(seed=99)


@pytest.fixture
def setup(cloud):
    kv = cloud.kv()
    kv.create_table("nodes")
    cloud.run_process(kv.put_item(OpContext(), "nodes", "/a", {"data": "x"}))
    lock = TimedLock(kv, "nodes", max_hold_ms=2000)
    return kv, lock, OpContext()


def test_acquire_free_lock(cloud, setup):
    kv, lock, ctx = setup
    handle = cloud.run_process(lock.acquire(ctx, "/a"))
    assert handle is not None
    assert handle.item["data"] == "x"
    assert kv.table("nodes").raw("/a")["lock"]["ts"] == handle.timestamp


def test_second_acquire_fails_while_held(cloud, setup):
    kv, lock, ctx = setup

    def flow():
        h1 = yield from lock.acquire(ctx, "/a")
        h2 = yield from lock.acquire(ctx, "/a")
        return h1, h2

    h1, h2 = cloud.run_process(flow())
    assert h1 is not None
    assert h2 is None


def test_release_allows_reacquire(cloud, setup):
    kv, lock, ctx = setup

    def flow():
        h1 = yield from lock.acquire(ctx, "/a")
        ok = yield from lock.release(ctx, h1)
        h2 = yield from lock.acquire(ctx, "/a")
        return ok, h2

    ok, h2 = cloud.run_process(flow())
    assert ok is True
    assert h2 is not None


def test_expired_lock_can_be_taken_over(cloud, setup):
    kv, lock, ctx = setup

    def flow():
        h1 = yield from lock.acquire(ctx, "/a")
        yield cloud.env.timeout(2500)  # past max_hold_ms
        h2 = yield from lock.acquire(ctx, "/a")
        return h1, h2

    h1, h2 = cloud.run_process(flow())
    assert h1 is not None and h2 is not None
    assert h2.timestamp > h1.timestamp


def test_stale_holder_cannot_release_after_takeover(cloud, setup):
    kv, lock, ctx = setup

    def flow():
        h1 = yield from lock.acquire(ctx, "/a")
        yield cloud.env.timeout(2500)
        h2 = yield from lock.acquire(ctx, "/a")
        released = yield from lock.release(ctx, h1)  # stale handle
        return released, h2

    released, h2 = cloud.run_process(flow())
    assert released is False
    # new holder's lock still in place
    assert kv.table("nodes").raw("/a")["lock"]["ts"] == h2.timestamp


def test_guarded_update_applies_while_held(cloud, setup):
    kv, lock, ctx = setup

    def flow():
        h = yield from lock.acquire(ctx, "/a")
        image = yield from lock.guarded_update(ctx, h, [Set("data", "y")])
        return image

    image = cloud.run_process(flow())
    assert image["data"] == "y"
    assert "lock" in kv.table("nodes").raw("/a")  # still held


def test_guarded_update_noop_after_expiry_takeover(cloud, setup):
    """A holder that lost its lease must not overwrite newer state."""
    kv, lock, ctx = setup

    def flow():
        h1 = yield from lock.acquire(ctx, "/a")
        yield cloud.env.timeout(2500)
        h2 = yield from lock.acquire(ctx, "/a")
        yield from lock.guarded_update(ctx, h2, [Set("data", "new")])
        stale = yield from lock.guarded_update(ctx, h1, [Set("data", "stale")])
        return stale

    stale = cloud.run_process(flow())
    assert stale is None
    assert kv.table("nodes").raw("/a")["data"] == "new"


def test_commit_unlock_atomic(cloud, setup):
    kv, lock, ctx = setup

    def flow():
        h = yield from lock.acquire(ctx, "/a")
        image = yield from lock.commit_unlock(ctx, h, [Set("data", "final")])
        return image

    image = cloud.run_process(flow())
    assert image["data"] == "final"
    raw = kv.table("nodes").raw("/a")
    assert "lock" not in raw
    assert raw["data"] == "final"


def test_commit_unlock_rejected_when_lease_lost(cloud, setup):
    kv, lock, ctx = setup

    def flow():
        h1 = yield from lock.acquire(ctx, "/a")
        yield cloud.env.timeout(2500)
        h2 = yield from lock.acquire(ctx, "/a")
        result = yield from lock.commit_unlock(ctx, h1, [Set("data", "stale")])
        return result, h2

    result, h2 = cloud.run_process(flow())
    assert result is None
    raw = kv.table("nodes").raw("/a")
    assert raw["data"] == "x"
    assert raw["lock"]["ts"] == h2.timestamp


def test_lock_on_missing_item_creates_it(cloud, setup):
    kv, lock, ctx = setup
    handle = cloud.run_process(lock.acquire(ctx, "/fresh"))
    assert handle is not None
    assert kv.table("nodes").raw("/fresh")["lock"]["ts"] == handle.timestamp


def test_extra_condition_in_commit(cloud, setup):
    from repro.cloud import Attr

    kv, lock, ctx = setup

    def flow():
        h = yield from lock.acquire(ctx, "/a")
        return (yield from lock.commit_unlock(
            ctx, h, [Set("data", "z")], extra_condition=Attr("data") == "WRONG",
        ))

    assert cloud.run_process(flow()) is None
    assert kv.table("nodes").raw("/a")["data"] == "x"


def test_concurrent_contenders_exactly_one_wins(cloud, setup):
    """N processes race for the same lock at the same instant."""
    kv, lock, ctx = setup
    wins = []

    def contender(tag):
        h = yield from lock.acquire(ctx, "/a")
        if h is not None:
            wins.append(tag)

    for i in range(8):
        cloud.env.process(contender(i))
    cloud.run(until=5000)
    assert len(wins) == 1


@pytest.mark.parametrize("item", [
    None, {}, {"data": "x"}, {"lock": {}},
    {"lock": {"ts": 0.0}}, {"lock": {"ts": 999.0}}, {"lock": {"ts": 1000.0}},
    {"lock": {"ts": 1001.0}}, {"lock": {"ts": 3000.0}},
])
def test_live_is_the_read_side_of_free(setup, item):
    """One lease rule: at every boundary an image is ``live`` exactly when
    the ``free`` condition rejects it (ts 1000 at now 3000 has just
    expired)."""
    _kv, lock, _ctx = setup
    now = 3000.0
    assert lock.live(item, now) is not lock.free(now).evaluate(item or {})

