"""Garbage-collection function tests (extension feature)."""

from types import SimpleNamespace

import pytest

from repro.cloud import OpContext
from .conftest import make_service


def _gc_logic(service):
    (stage,) = [s for s in service.stages if s.kind == "gc"]
    return stage.logic


def _collected(service, kind):
    return service.metrics.get("fk_gc_collected_total").labels(kind=kind).value


def test_gc_collects_tombstones(cloud=None):
    cloud, service = make_service(seed=200)
    c = service.connect()
    c.create("/a")
    c.delete("/a")
    nodes = service.system_store.table("fk-system-nodes")
    assert nodes.raw("/a") is not None  # tombstone present
    assert nodes.raw("/a")["exists"] is False
    cloud.run(until=cloud.now + 10 * 60_000)  # grace + two sweeps
    assert nodes.raw("/a") is None
    assert _collected(service, "tombstone") >= 1


def test_gc_spares_live_nodes():
    cloud, service = make_service(seed=201)
    c = service.connect()
    c.create("/keep", b"x")
    cloud.run(until=cloud.now + 10 * 60_000)
    nodes = service.system_store.table("fk-system-nodes")
    assert nodes.raw("/keep")["exists"] is True
    data, _ = c.get_data("/keep")
    assert data == b"x"


def test_gc_collects_phantom_lock_items():
    """A failed create leaves an item with only a lock; GC sweeps it."""
    cloud, service = make_service(seed=202)
    c = service.connect()

    def hog():
        handle = yield from service.node_lock.acquire(OpContext(), "/phantom")
        assert handle is not None
        released = yield from service.node_lock.release(OpContext(), handle)
        assert released

    cloud.run_process(hog())
    nodes = service.system_store.table("fk-system-nodes")
    assert nodes.raw("/phantom") == {}  # empty phantom item
    cloud.run(until=cloud.now + 10 * 60_000)
    assert nodes.raw("/phantom") is None
    assert _collected(service, "phantom") >= 1


def test_gc_drops_watches_of_dead_sessions():
    cloud, service = make_service(seed=203)
    c1 = service.connect()
    c2 = service.connect()
    c1.create("/w", b"")
    c2.get_data("/w", watch=lambda ev: None)
    c2.close()
    watches = service.system_store.table("fk-system-watches")
    assert watches.raw("/w")["inst"].get("data") is not None
    cloud.run(until=cloud.now + 10 * 60_000)
    assert not watches.raw("/w")["inst"].get("data")
    assert _collected(service, "watch") >= 1


def test_gc_watch_sweep_spares_instance_reregistered_during_sweep():
    """Regression: the sweeper removed ``inst.<wtype>`` unconditionally from
    its scan snapshot.  A watch instance consumed (fired) and re-registered
    by a live session between the scan and the update was silently deleted
    and never fired again.  The removal is now conditional on the instance
    id observed at scan time."""
    cloud, service = make_service(seed=207)
    alive = service.connect()
    ghost = service.connect()
    alive.create("/w", b"")
    ghost.get_data("/w", watch=lambda ev: None)  # dead session's watch
    ghost_sid = ghost.session_id
    ghost.close()  # session record gone; instance (ghost only) is sweepable

    watches_tbl = service.system_store.table("fk-system-watches")
    old_inst = watches_tbl.raw("/w")["inst"]["data"]
    assert old_inst["sessions"] == [ghost_sid]

    # Drive the sweep manually so the scan-to-update window is observable.
    fctx = SimpleNamespace(env=cloud.env, ctx=OpContext(
        region=service.config.primary_region))
    sweep = cloud.env.process(_gc_logic(service)._sweep_watches(fctx))
    reads_before = watches_tbl.read_count
    while watches_tbl.read_count == reads_before and not sweep.triggered:
        cloud.run(until=cloud.now + 0.05)
    assert not sweep.triggered  # scan done, removal not yet applied

    # In the window: the old instance is consumed by a write and a live
    # session re-registers, minting a fresh instance id.
    watches_tbl._store("/w", {"inst": {"data": {
        "id": "w-fresh|/w|data", "sessions": [alive.session_id]}}})

    cloud.run(until=sweep)
    inst = watches_tbl.raw("/w")["inst"].get("data")
    assert inst is not None, "live re-registered watch was swept away"
    assert inst["id"] == "w-fresh|/w|data"
    assert inst["sessions"] == [alive.session_id]


def test_gc_watch_sweep_spares_live_session_joining_during_sweep():
    """A live session that JOINS the scanned instance in the scan-to-update
    window keeps the instance id (registration is SetIfNotExists on the id)
    — the removal guard must pin the session list too, or the newcomer is
    silently unsubscribed."""
    cloud, service = make_service(seed=208)
    alive = service.connect()
    ghost = service.connect()
    alive.create("/w", b"")
    ghost.get_data("/w", watch=lambda ev: None)
    ghost_sid = ghost.session_id
    ghost.close()

    watches_tbl = service.system_store.table("fk-system-watches")
    old_inst = watches_tbl.raw("/w")["inst"]["data"]
    assert old_inst["sessions"] == [ghost_sid]

    fctx = SimpleNamespace(env=cloud.env, ctx=OpContext(
        region=service.config.primary_region))
    sweep = cloud.env.process(_gc_logic(service)._sweep_watches(fctx))
    reads_before = watches_tbl.read_count
    while watches_tbl.read_count == reads_before and not sweep.triggered:
        cloud.run(until=cloud.now + 0.05)
    assert not sweep.triggered

    # In the window: the live session joins the SAME instance (same id).
    watches_tbl._store("/w", {"inst": {"data": {
        "id": old_inst["id"],
        "sessions": [ghost_sid, alive.session_id]}}})

    cloud.run(until=sweep)
    inst = watches_tbl.raw("/w")["inst"].get("data")
    assert inst is not None, "instance with a live joiner was swept away"
    assert alive.session_id in inst["sessions"]


def test_gc_keeps_watches_of_live_sessions():
    cloud, service = make_service(seed=204)
    c1 = service.connect()
    c1.create("/w", b"")
    c1.get_data("/w", watch=lambda ev: None)
    cloud.run(until=cloud.now + 10 * 60_000)
    watches = service.system_store.table("fk-system-watches")
    assert watches.raw("/w")["inst"].get("data") is not None


def test_gc_suspended_at_scale_to_zero():
    cloud, service = make_service(seed=205)
    c = service.connect()
    assert service.gc_task.enabled
    c.close()
    assert not service.gc_task.enabled
    fired = service.gc_task.fired
    cloud.run(until=cloud.now + 30 * 60_000)
    assert service.gc_task.fired == fired


def test_recreate_works_after_gc():
    cloud, service = make_service(seed=206)
    c = service.connect()
    c.create("/a", b"v1")
    c.delete("/a")
    cloud.run(until=cloud.now + 10 * 60_000)  # tombstone collected
    c.create("/a", b"v2")
    data, stat = c.get_data("/a")
    assert data == b"v2"
    assert stat.version == 0
