"""Garbage collection: tombstones are queued by the leader that pops them,
lock-only items go with their lock, dead sessions' watch instances with
the next write to their path."""

import pytest

from repro.cloud import OpContext
from repro.faaskeeper import NoNodeError
from repro.faaskeeper.gc import TOMBSTONE_GRACE_MS
from repro.faaskeeper.layout import SYSTEM_NODES, SYSTEM_WATCHES
from .conftest import crash_next, make_service


def _collected(service):
    return service.metrics.get("fk_gc_collected_total").labels(
        kind="tombstone").value


def _run_until_popped(cloud, nodes, path):
    """Step the clock until ``path``'s pending list is empty: the pop."""
    while nodes.raw(path)["transactions"]:
        cloud.run(until=cloud.now + 1.0)
    return cloud.now


def test_gc_collects_tombstones():
    cloud, service = make_service(seed=200)
    c = service.connect()
    c.create("/a")
    c.delete("/a")
    nodes = service.system_store.table(SYSTEM_NODES)
    assert nodes.raw("/a")["exists"] is False  # tombstone present
    cloud.run(until=cloud.now + TOMBSTONE_GRACE_MS + 10_000)
    assert nodes.raw("/a") is None
    assert _collected(service) == 1


@pytest.mark.parametrize("crash", [False, True], ids=["clean", "leader-crash"])
def test_a_tombstone_lives_out_its_grace_period(crash):
    """The tombstone outlives the pop of its delete by the grace period,
    also when the delete lands 10 s before the minute a 5-minute cron
    would have swept; with the leader crashed after the pop, the
    redelivered batch (which finds the delete applied) still queues it."""
    cloud, service = make_service(seed=209)
    nodes = service.system_store.table(SYSTEM_NODES)
    start = cloud.now
    c = service.connect()
    c.create("/a")
    leader = service.leader_fns[0]
    if crash:
        crash_next(leader, "after:update_item#2")  # after the delete's pops
    cloud.run(until=start + 290_000)
    c.delete("/a")
    popped = _run_until_popped(cloud, nodes, "/a")
    cloud.run(until=popped + TOMBSTONE_GRACE_MS - 1_000)
    assert nodes.raw("/a")["exists"] is False
    cloud.run(until=popped + TOMBSTONE_GRACE_MS + 5_000)
    assert nodes.raw("/a") is None
    assert leader.failures == int(crash)
    assert _collected(service) == 1


def test_gc_spares_live_nodes():
    """Also a path re-created inside its tombstone's grace period: the
    GC's guard sees it exists again."""
    cloud, service = make_service(seed=201)
    c = service.connect()
    c.create("/keep", b"old")
    c.delete("/keep")
    c.create("/keep", b"x")
    cloud.run(until=cloud.now + TOMBSTONE_GRACE_MS + 10_000)
    nodes = service.system_store.table(SYSTEM_NODES)
    assert nodes.raw("/keep")["exists"] is True
    data, _ = c.get_data("/keep")
    assert data == b"x"
    assert _collected(service) == 0


def test_gc_waits_out_a_live_lock_on_the_tombstone():
    """A lock taken on a tombstone (a write in flight on its path) makes
    the GC batch redeliver; the tombstone goes once the lock does."""
    cloud, service = make_service(seed=210)
    c = service.connect()
    c.create("/a")
    c.delete("/a")
    nodes = service.system_store.table(SYSTEM_NODES)
    lock = service.node_lock
    popped = _run_until_popped(cloud, nodes, "/a")
    cloud.run(until=popped + TOMBSTONE_GRACE_MS - 100)

    def hold():
        handle = yield from lock.acquire(OpContext(), "/a")
        yield cloud.env.timeout(500)
        assert service.gc_fn.failures >= 1       # GC came while held...
        assert nodes.raw("/a")["exists"] is False  # ...and left it
        assert (yield from lock.release(OpContext(), handle))

    cloud.run_process(hold())
    cloud.run(until=cloud.now + 1_000)
    assert nodes.raw("/a") is None
    assert _collected(service) == 1


def test_gc_suspended_at_scale_to_zero():
    """GC has no cron: an hour of writes without a delete never invokes
    it; one delete invokes it once, a grace period later — also when
    every session has closed by then."""
    cloud, service = make_service(seed=205)
    c = service.connect()
    c.create("/a", b"x")
    c.set_data("/a", b"y")
    cloud.run(until=cloud.now + 3_600_000)
    assert service.gc_fn.invocations == 0
    c.delete("/a")
    c.close()
    cloud.run(until=cloud.now + TOMBSTONE_GRACE_MS + 10_000)
    assert service.gc_fn.invocations == 1
    assert service.system_store.table(SYSTEM_NODES).raw("/a") is None


def test_recreate_works_after_gc():
    cloud, service = make_service(seed=206)
    c = service.connect()
    c.create("/a", b"v1")
    c.delete("/a")
    cloud.run(until=cloud.now + TOMBSTONE_GRACE_MS + 10_000)  # collected
    assert service.system_store.table(SYSTEM_NODES).raw("/a") is None
    c.create("/a", b"v2")
    data, stat = c.get_data("/a")
    assert data == b"v2"
    assert stat.version == 0


# ------------------------------------------------------------ lock-only items
def test_a_sequential_create_leaves_no_item_at_its_prefix():
    cloud, service = make_service(seed=202)
    c = service.connect()
    c.create("/q")
    path = c.create("/q/item-", sequence=True)
    nodes = service.system_store.table(SYSTEM_NODES)
    assert nodes.raw("/q/item-") is None
    assert nodes.raw(path)["exists"] is True


def test_a_failed_create_leaves_no_lock_items():
    cloud, service = make_service(seed=203)
    c = service.connect()
    with pytest.raises(NoNodeError):
        c.create("/nope/child")
    nodes = service.system_store.table(SYSTEM_NODES)
    assert nodes.raw("/nope") is None
    assert nodes.raw("/nope/child") is None


def test_a_released_lock_takes_its_lock_only_item_with_it():
    cloud, service = make_service(seed=204)
    service.connect().create("/kept")
    cloud.run(until=cloud.now + 1_000)  # popped
    lock = service.node_lock

    def hog(path):
        handle = yield from lock.acquire(OpContext(), path)
        assert handle is not None
        assert (yield from lock.release(OpContext(), handle))

    nodes = service.system_store.table(SYSTEM_NODES)
    kept = nodes.raw("/kept")
    cloud.run_process(hog("/phantom"))
    cloud.run_process(hog("/kept"))
    assert nodes.raw("/phantom") is None
    assert nodes.raw("/kept") == kept


# ------------------------------------------------------------ watches
def test_a_dead_sessions_watch_is_consumed_by_the_next_write():
    cloud, service = make_service(seed=207)
    c1 = service.connect()
    c2 = service.connect()
    c1.create("/w", b"")
    events = []
    c2.get_data("/w", watch=events.append)
    c2.close()
    watches = service.system_store.table(SYSTEM_WATCHES)
    assert watches.raw("/w")["inst"].get("data") is not None
    c1.set_data("/w", b"x")
    cloud.run(until=cloud.now + 10_000)
    assert not watches.raw("/w")["inst"].get("data")
    assert events == []  # the closed client is told nothing


def test_gc_keeps_watches_of_live_sessions():
    cloud, service = make_service(seed=208)
    c1 = service.connect()
    c1.create("/w", b"")
    c1.get_data("/w", watch=lambda ev: None)
    cloud.run(until=cloud.now + 10 * 60_000)
    watches = service.system_store.table(SYSTEM_WATCHES)
    assert watches.raw("/w")["inst"].get("data") is not None


# ------------------------------------------------------------ the idle bill
def _idle_hour(nodes):
    """Seed 7, 10 sessions, S3, ``nodes`` 1 kB nodes, a 10-minute settle:
    the metered dollars of the next idle virtual hour."""
    cloud, service = make_service(seed=7)
    clients = service.connect_many(10)
    for i in range(nodes):
        clients[i % len(clients)].create_async(f"/n{i}", b"x" * 1024)
    cloud.run(until=cloud.now + 10 * 60_000)
    before = cloud.meter.total
    cloud.run(until=cloud.now + 3_600_000)
    return cloud.meter.total - before, cloud, clients


def test_an_idle_hour_bills_the_sessions_not_the_stored_nodes():
    """§5.3.3: an idle deployment pays for keeping its sessions alive; a
    sweeper that reads every stored node would make a thousand nodes cost
    several times what ten do.  After the last delayed GC message has
    settled, a closed deployment's idle day meters nothing."""
    small, _, _ = _idle_hour(10)
    large, cloud, clients = _idle_hour(1_000)
    assert large == pytest.approx(small, rel=0.05)
    clients[0].delete("/n0")
    for c in clients:
        c.close()
    cloud.run(until=cloud.now + TOMBSTONE_GRACE_MS + 10_000)
    before = cloud.meter.total
    cloud.run(until=cloud.now + 24 * 3_600_000)
    assert cloud.meter.total == before
