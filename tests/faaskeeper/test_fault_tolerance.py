"""Fault injection: follower/leader crashes, lock expiry, retries (Z1).

The crash points are planted in the follower (Algorithm 1) between its
numbered steps; the leader's TryCommit (Algorithm 2, step ➋) must recover
or reject the transaction so that no partial state is ever user-visible.
"""

import pytest

from repro.faaskeeper import NoNodeError, RequestFailedError
from .conftest import make_service


def test_follower_crash_before_push_is_retried_transparently():
    """Crash after validation, before the leader push: the queue redelivers
    the request and the client still gets a success."""
    cloud, service = make_service(seed=11)
    c = service.connect()
    c.create("/a", b"")
    service.follower_fn.plan_crash("after_validate",
                                   invocations=[service.follower_fn.invocations + 1])
    res = c.set_data("/a", b"v1")
    assert res.version == 1
    data, _ = c.get_data("/a")
    assert data == b"v1"
    assert service.follower_fn.failures == 1


def test_follower_crash_after_commit_no_double_apply():
    """Crash after commit (➃): the redelivered request must be deduplicated
    by the session watermark — the node version is bumped exactly once."""
    cloud, service = make_service(seed=13)
    c = service.connect()
    c.create("/a", b"")
    service.follower_fn.plan_crash("after_commit",
                                   invocations=[service.follower_fn.invocations + 1])
    fut = c.set_data_async("/a", b"once")
    cloud.run(until=cloud.now + 30_000)
    assert fut.done and fut.wait().version == 1
    data, stat = c.get_data("/a")
    assert data == b"once"
    assert stat.version == 1  # not applied twice


def test_multi_node_create_commit_is_atomic_under_crash():
    """Z1: a crash between push and commit of a create must never leave the
    child registered without the node (or vice versa)."""
    cloud, service = make_service(seed=14, follower_max_receive=1)
    c = service.connect()
    c.create("/p", b"")
    service.follower_fn.plan_crash("after_push",
                                   invocations=[service.follower_fn.invocations + 1])
    fut = c.create_async("/p/child", b"x")
    cloud.run(until=cloud.now + 30_000)
    nodes = service.system_store.table("fk-system-nodes")
    child = nodes.raw("/p/child")
    parent = nodes.raw("/p")
    child_exists = bool(child and child.get("exists"))
    child_registered = "child" in parent.get("children", [])
    assert child_exists == child_registered  # all-or-nothing
    if fut.done:
        try:
            fut.wait()
            assert child_exists  # success ack implies the commit happened
        except RequestFailedError:
            # The drop notification may race the leader's TryCommit recovery
            # (at-most-once ack); the state itself stays atomic either way.
            pass


def test_leader_crash_is_retried_by_queue():
    cloud, service = make_service(seed=15)
    c = service.connect()
    c.create("/a", b"")
    leader = service.leader_fns[0]
    leader.plan_crash("leader_entry", invocations=[leader.invocations + 1])
    # plant the crash point by wrapping the handler segment: use generic
    # crash at function start via base compute -- emulate by planning on a
    # point the leader hits every time.
    res = c.set_data("/a", b"v1")
    assert res.version == 1


def test_poison_request_eventually_fails_future():
    """A request whose follower processing always crashes is dropped by the
    queue after max_receive and the client future fails."""
    cloud, service = make_service(seed=16, follower_max_receive=2)
    c = service.connect()
    c.create("/a", b"")
    service.follower_fn.plan_crash("after_validate", predicate=lambda i: True)
    fut = c.set_data_async("/a", b"x")
    cloud.run(until=cloud.now + 60_000)
    assert fut.done
    with pytest.raises(RequestFailedError):
        fut.wait()


def test_lock_expiry_does_not_corrupt_state():
    """A follower whose lease expired mid-request must not clobber a newer
    holder's committed data."""
    cloud, service = make_service(seed=17)
    c = service.connect()
    c.create("/a", b"")
    # Two sequential writes through the normal path still work after an
    # artificial long stall is injected by an expired-lock scenario: we
    # simulate by directly taking the node lock and letting it expire.
    from repro.cloud import OpContext

    def hog():
        handle = yield from service.node_lock.acquire(OpContext(), "/a")
        assert handle is not None
        # never release: the lease must expire on its own

    cloud.run_process(hog())
    res = c.set_data("/a", b"after-expiry")  # must eventually succeed
    assert res.version == 1
    data, _ = c.get_data("/a")
    assert data == b"after-expiry"


def test_consistency_after_random_follower_crashes():
    """Soak: every third follower invocation crashes at a random point; all
    acknowledged writes must be present and version numbers consistent."""
    cloud, service = make_service(seed=18)
    c = service.connect()
    c.create("/a", b"")
    service.follower_fn.plan_crash("after_validate", predicate=lambda i: i % 5 == 3)
    service.follower_fn.plan_crash("after_commit", predicate=lambda i: i % 7 == 4)
    acked = 0
    for i in range(12):
        fut = c.set_data_async("/a", f"v{i}".encode())
        cloud.run(until=cloud.now + 60_000)
        if fut.done:
            try:
                fut.wait()
                acked += 1
            except RequestFailedError:
                pass
    assert acked >= 8
    raw = service.system_store.table("fk-system-nodes").raw("/a")
    assert raw["transactions"] == []  # everything drained
    data, stat = c.get_data("/a")
    # the last acknowledged value is visible with a consistent version
    assert stat.version == raw["version"]


def test_watch_fanout_crash_between_deliveries_sends_the_earlier_ones():
    """The fan-out dies after building the first watch's delivery: that one
    is on the wire (a function that crashes cannot take back what it sent),
    the retried invocation sends both, and the client's deduplication by
    watch-instance id keeps each callback at exactly once."""
    cloud, service = make_service(seed=17, free_fn_retries=2)
    c = service.connect()
    c.create("/a", b"")
    c.create("/b", b"")
    fired, arrived = [], []
    for path in ("/a", "/b"):
        c.get_data(path, watch=lambda ev: fired.append(ev.path))
    deliver = c._deliver_watch
    c._deliver_watch = lambda wid, ev: (arrived.append(ev.path),
                                        deliver(wid, ev))
    calls = []
    service.watch_fn.plan_crash(
        "watch_mid_fanout",
        predicate=lambda _i: calls.append(1) or len(calls) == 2)

    txn = c.transaction()
    txn.set_data("/a", b"1")
    txn.set_data("/b", b"1")
    txn.commit()
    cloud.run(until=cloud.now + 2_000)
    assert (service.watch_fn.failures, service.watch_fn.invocations) == (1, 2)
    assert sorted(arrived) == ["/a", "/a", "/b"]  # the crashed "/a" + both
    assert sorted(fired) == ["/a", "/b"]
