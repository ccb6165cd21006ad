"""Commit log, fuzzy snapshots, compaction and recovery (snapshot.py).

ZooKeeper's durability design on the FaaSKeeper layout: the leader logs
every committed transaction's replication writes, a fuzzy snapshot folds
the log into a per-path checkpoint concurrent with commits, compaction
truncates the folded prefix (clamped by the slowest cursor: every region's
``replicated_tx`` watermark and the outbox's published mark), and a
region's user store rebuilds from snapshot + suffix after replica loss.
Snapshots run every ``SNAPSHOT_EVERY`` txids (ZooKeeper's ``snapCount``),
and a quiet or rejected-from shard never pins the log's floor.
"""

import dataclasses

import pytest

from repro.faaskeeper import FaaSKeeperConfig
from repro.faaskeeper.layout import (
    LOG_HEAD_KEY,
    SNAPSHOT_META_KEY,
    SYSTEM_LOG,
    SYSTEM_SNAPSHOT,
    SYSTEM_STATE,
    log_key,
    replicated_key,
)
from repro.faaskeeper.leader import LeaderLogic
from repro.faaskeeper.snapshot import SNAPSHOT_EVERY
from .conftest import cap_redeliveries, crash_next, make_service


def snapshot_now(cloud, service):
    return cloud.run_process(service.snapshots.take_snapshot(service.system_ctx))


def compact_now(cloud, service):
    return cloud.run_process(service.snapshots.compact(service.system_ctx))


def recover_now(cloud, service, region, cold):
    return cloud.run_process(service.snapshots.recover_region(
        service.system_ctx, region, cold=cold))


def log_txids(service):
    return sorted(int(k) for k in service.system_store.table(SYSTEM_LOG).keys())


def settle(cloud, ms=60_000):
    cloud.run(until=cloud.now + ms)


def counter(service, name):
    return service.metrics.get(name).value


def test_default_deployment_has_no_log():
    """The commit log is opt-in: the default deployment neither creates
    the tables nor pays any per-commit work."""
    cloud, service = make_service(seed=500)
    assert service.snapshots is None
    c = service.connect()
    c.create("/a", b"x")
    assert SYSTEM_LOG not in service.system_store.tables


def test_commit_log_records_every_committed_txid():
    cloud, service = make_service(seed=501, commit_log_enabled=True)
    c = service.connect()
    nodes = service.system_store.table("fk-system-nodes")
    c.create("/a", b"v0")
    c.create("/b", b"w0")
    txids = [nodes.raw("/a")["created_tx"],
             nodes.raw("/b")["created_tx"],
             c.set_data("/a", b"v1").txid]
    log = service.system_store.table(SYSTEM_LOG)
    for txid in txids:
        record = log.raw(log_key(txid))
        assert record is not None and record["txid"] == txid
    heads = service.system_store.table(SYSTEM_STATE).raw(LOG_HEAD_KEY)
    assert heads["s0"] == max(txids)


def test_fuzzy_snapshot_folds_newest_images():
    cloud, service = make_service(seed=502, commit_log_enabled=True)
    c = service.connect()
    c.create("/a", b"old")
    c.set_data("/a", b"new")
    c.create("/gone", b"bye")
    c.delete("/gone")
    floor = snapshot_now(cloud, service)
    heads = service.system_store.table(SYSTEM_STATE).raw(LOG_HEAD_KEY)
    assert floor == heads["s0"]
    snap = service.system_store.table(SYSTEM_SNAPSHOT)
    a = snap.raw("/a")
    assert a["image"]["data"] == b"new" and a["image"]["version"] == 1
    assert snap.raw("/gone") is None  # folded delete removes the item
    # parent metadata folded without clobbering data
    root = snap.raw("/")
    assert root is not None and "children" in root["image"]
    meta = service.system_store.table(SYSTEM_STATE).raw(SNAPSHOT_META_KEY)
    assert meta["txid"] == floor and meta["seq"] == 1


def test_snapshot_is_incremental_and_refold_is_idempotent():
    cloud, service = make_service(seed=503, commit_log_enabled=True)
    c = service.connect()
    c.create("/a", b"v0")
    first = snapshot_now(cloud, service)
    folded = service.metrics.get("fk_snapshot_records_folded_total")
    folded_first = folded.value
    # nothing new: the floor does not move, nothing is re-folded
    assert snapshot_now(cloud, service) == first
    assert folded.value == folded_first
    c.set_data("/a", b"v1")
    second = snapshot_now(cloud, service)
    assert second > first
    snap = service.system_store.table(SYSTEM_SNAPSHOT)
    assert snap.raw("/a")["image"]["data"] == b"v1"


def test_compaction_truncates_folded_prefix():
    cloud, service = make_service(seed=504, commit_log_enabled=True)
    c = service.connect()
    for i in range(6):
        c.set_data("/a", f"v{i}".encode()) if i else c.create("/a", b"v0")
    floor = snapshot_now(cloud, service)
    assert log_txids(service)  # records exist below the floor
    removed = compact_now(cloud, service)
    assert removed > 0
    assert all(txid > floor for txid in log_txids(service))
    meta = service.system_store.table(SYSTEM_STATE).raw(SNAPSHOT_META_KEY)
    assert meta["compacted"] == floor
    # a second sweep with no new snapshot is a no-op
    assert compact_now(cloud, service) == 0


def test_compaction_never_truncates_above_lagging_region_watermark():
    """Satellite regression: the compaction cut is clamped to the minimum
    per-region ``replicated_tx`` watermark, so a lagging region can still
    replay its suffix from its own watermark after the sweep."""
    cloud, service = make_service(
        seed=506, commit_log_enabled=True, distributor_enabled=True,
        regions=["us-east-1", "eu-west-1"])
    c = service.connect()
    for i in range(5):
        c.set_data("/a", f"v{i}".encode()) if i else c.create("/a", b"v0")
    cloud.run(until=cloud.now + 10_000)  # let both regions drain
    floor = snapshot_now(cloud, service)
    state = service.system_store.table(SYSTEM_STATE)
    # Make eu-west-1 lag: wind its watermark back below the floor, as if
    # its distributor had crashed before draining the later records.
    lag = 2
    assert lag < floor
    state._store(replicated_key("eu-west-1"), {"txid": lag})
    compact_now(cloud, service)
    meta = state.raw(SNAPSHOT_META_KEY)
    assert meta["compacted"] == lag  # clamped, not the snapshot floor
    remaining = log_txids(service)
    assert all(txid > lag for txid in remaining)
    # the lagging region's suffix is intact and warm recovery replays it
    wiped = [t for t in range(lag + 1, floor + 1)]
    assert set(wiped) <= set(remaining)
    stats = recover_now(cloud, service, "eu-west-1", cold=False)
    assert stats["replayed"] >= len(wiped)
    assert state.raw(replicated_key("eu-west-1"))["txid"] >= floor


def test_cold_recovery_rebuilds_wiped_region_from_snapshot_plus_suffix():
    cloud, service = make_service(seed=507, commit_log_enabled=True)
    c = service.connect()
    c.create("/a", b"v0")
    c.create("/a/kid", b"k0")
    c.set_data("/a", b"v1")
    snapshot_now(cloud, service)
    compact_now(cloud, service)
    c.set_data("/a/kid", b"k1")  # suffix: logged but not snapshotted
    c.create("/late", b"fresh")
    region = service.config.primary_region
    before = {p: service.user_store.peek(region, p)
              for p in ("/a", "/a/kid", "/late")}
    service.user_store.wipe_region(region)
    assert service.user_store.peek(region, "/a") is None
    stats = recover_now(cloud, service, region, cold=True)
    assert stats["loaded"] >= 2 and stats["replayed"] >= 2
    for path, image in before.items():
        got = service.user_store.peek(region, path)
        assert got is not None, path
        assert got.get("data") == image.get("data"), path
        assert got.get("version") == image.get("version"), path
        assert got.get("modified_tx") == image.get("modified_tx"), path


def test_cold_recovery_applies_suffix_deletes():
    cloud, service = make_service(seed=508, commit_log_enabled=True)
    c = service.connect()
    c.create("/doomed", b"x")
    snapshot_now(cloud, service)
    c.delete("/doomed")  # delete lives only in the suffix
    region = service.config.primary_region
    service.user_store.wipe_region(region)
    recover_now(cloud, service, region, cold=True)
    assert service.user_store.peek(region, "/doomed") is None


def test_scheduled_snapshot_function_runs_and_compacts():
    """The ``fk-snapshot`` function runs when the log reaches a multiple
    of ``SNAPSHOT_EVERY`` txids, not on a timer, and folds and compacts
    with no manual call."""
    cloud, service = make_service(seed=509, commit_log_enabled=True)
    (stage,) = [s for s in service.stages if s.kind == "snapshot"]
    assert stage.task is None and stage.queue is service.snapshots.queue
    c = service.connect()
    c.create("/a", b"v0")                                      # txid 1
    for i in range(2, SNAPSHOT_EVERY):
        c.set_data_async("/a", f"v{i}".encode())
    settle(cloud)
    assert stage.fn.invocations == 0          # one txid short of the count
    assert c.set_data("/a", b"last").txid == SNAPSHOT_EVERY
    settle(cloud)
    assert stage.fn.invocations == 1
    assert counter(service, "fk_snapshots_taken_total") == 1
    assert counter(service, "fk_log_records_compacted_total") == SNAPSHOT_EVERY
    snap = service.system_store.table(SYSTEM_SNAPSHOT)
    assert snap.raw("/a")["image"]["data"] == b"last"
    assert log_txids(service) == []


@pytest.mark.parametrize("outbox", [False, True], ids=["log", "log+outbox"])
def test_the_log_stays_bounded_without_a_manual_compaction(outbox):
    """A deployment with the commit log compacts by itself: after three
    ``SNAPSHOT_EVERY``s of writes the log holds at most two of them, with
    the outbox's published mark pinning compaction or not."""
    cloud, service = make_service(seed=513, commit_log_enabled=True,
                                  outbox_enabled=outbox)
    c = service.connect()
    c.create("/a", b"")
    for burst in range(3):
        futures = [c.set_data_async("/a", f"{burst}-{i}".encode())
                   for i in range(SNAPSHOT_EVERY)]
        settle(cloud)
        assert all(f.done for f in futures)
    assert counter(service, "fk_log_appends_total") == 3 * SNAPSHOT_EVERY + 1
    assert counter(service, "fk_snapshots_taken_total") == 3
    assert len(log_txids(service)) <= 2 * SNAPSHOT_EVERY


def test_traffic_on_one_of_four_shards_snapshots_publishes_and_compacts():
    """Every write under ``/a`` at four shards: the three shards that
    never log must not pin the floor, so every event is published, a
    snapshot is taken, the log is compacted, and once the pipeline is
    quiet the floor is the newest logged txid."""
    cloud, service = make_service(seed=7, commit_log_enabled=True,
                                  outbox_enabled=True, leader_shards=4,
                                  user_store="mem")
    c = service.connect()
    c.create("/a", b"")
    futures = [c.create_async(f"/a/n{i}", b"x")
               for i in range(SNAPSHOT_EVERY + 20)]
    settle(cloud, 120_000)
    assert all(f.done for f in futures)
    top = SNAPSHOT_EVERY + 21
    assert counter(service, "fk_log_appends_total") == top
    assert cloud.run_process(service.snapshots.bounds(service.system_ctx)) \
        == (top, top)
    assert set(service.outbox.sink(0).delivered_txids()) == \
        set(range(1, top + 1))
    assert counter(service, "fk_snapshots_taken_total") >= 1
    assert counter(service, "fk_log_records_compacted_total") > 0
    assert len(log_txids(service)) < top


def test_a_rejected_write_then_silence_does_not_pin_the_floor(monkeypatch):
    """A txid the leader rejects never gets a record, but it still moves
    its shard's head: a shard whose last txid was burned and that then
    goes quiet must not hold the floor below the other shard's records."""
    real = LeaderLogic._try_commit

    def reject_doomed(self, fctx, msg, txid, node):
        if msg["path"].endswith("/doomed"):
            return False
        return (yield from real(self, fctx, msg, txid, node))

    monkeypatch.setattr(LeaderLogic, "_try_commit", reject_doomed)
    cloud, service = make_service(seed=514, commit_log_enabled=True,
                                  leader_shards=2)
    busy, quiet = "/a", next(f"/{name}" for name in "bcdefgh"
                             if service.shard_of(f"/{name}") !=
                             service.shard_of("/a"))
    c = service.connect()
    c.create(busy, b"")
    c.create(quiet, b"")                                       # txid 2
    # the follower dies between push and commit: the leader must decide
    cap_redeliveries(service, c, 1)
    crash_next(service.follower_fn, "after:send#1")
    doomed = c.create_async(quiet + "/doomed", b"x")           # txid 3
    settle(cloud)
    assert doomed.done and doomed.event.ok is False
    for i in range(3):
        c.set_data(busy, f"v{i}".encode())                     # txids 4-6
    settle(cloud)
    assert log_txids(service) == [1, 2, 4, 5, 6]
    heads = service.system_store.table(SYSTEM_STATE).raw(LOG_HEAD_KEY)
    assert heads[f"s{service.shard_of(quiet)}"] == 3           # the burn
    assert snapshot_now(cloud, service) == 6


def test_redelivered_append_does_not_regress_log_head():
    """A leader crash after the log append redelivers the batch; the
    second append is a no-op and the head watermark never regresses."""
    cloud, service = make_service(seed=510, commit_log_enabled=True)
    c = service.connect()
    c.create("/a", b"v0")
    crash_next(service.leader_fns[0], "after:transact_update#1")
    res = c.set_data("/a", b"v1")
    assert res.version == 1
    assert service.leader_fns[0].failures == 1
    log = service.system_store.table(SYSTEM_LOG)
    record = log.raw(log_key(res.txid))
    assert record is not None and record["txid"] == res.txid
    heads = service.system_store.table(SYSTEM_STATE).raw(LOG_HEAD_KEY)
    assert heads["s0"] == res.txid
    data, _ = c.get_data("/a")
    assert data == b"v1"


def test_a_snapshot_bills_the_same_at_any_session_count():
    """A snapshot folds log records into node images and reads no table
    whole: the same writes cost the same snapshot dollars with 10 or
    1,000 sessions registered, and no ``scan`` is issued.  The snapshot
    runs under its own payer so the heartbeat's charges stay apart."""
    bills = []
    for sessions in (10, 1_000):
        cloud, service = make_service(seed=7, commit_log_enabled=True,
                                      user_store="mem")
        service.connect_many(sessions - 1)
        c = service.connect()
        c.create("/a", b"v0")
        for i in range(20):
            c.set_data("/a", f"v{i}".encode())
        store = service.system_store
        scans = []
        real = store.scan
        store.scan = lambda *a, **kw: scans.append(a) or real(*a, **kw)
        probe = dataclasses.replace(service.system_ctx, payer="probe")
        assert cloud.run_process(
            service.snapshots.take_snapshot(probe)) == 21
        bills.append(cloud.meter.service_total("probe"))
        assert scans == []
    assert bills[0] > 0 and bills[0] == bills[1]


def test_snapshots_compact_the_log_with_8500_sessions_registered():
    """8,500 session records would not fit one 400 kB item, so a snapshot
    that copied the session table could never complete and the log would
    grow forever.  Folding the log alone, ``fk-snapshot`` never fails,
    publishes ``snapshot:meta`` and compacts the log below
    ``SNAPSHOT_EVERY`` records."""
    cloud, service = make_service(seed=7, commit_log_enabled=True)
    service.connect_many(8_499)
    c = service.connect()
    c.create("/a", b"v0")
    futures = [c.set_data_async("/a", f"v{i}".encode()) for i in range(259)]
    settle(cloud, 30_000)
    assert all(f.done for f in futures)
    (stage,) = [s for s in service.stages if s.kind == "snapshot"]
    assert stage.fn.invocations >= 1 and stage.fn.failures == 0
    meta = service.system_store.table(SYSTEM_STATE).raw(SNAPSHOT_META_KEY)
    assert meta is not None and meta["txid"] >= SNAPSHOT_EVERY
    assert len(log_txids(service)) < SNAPSHOT_EVERY


def test_sharded_floor_is_min_over_shards():
    """With several shards the snapshot floor is the minimum head over the
    shards still holding an unlogged txid, so traffic on one shard cannot
    advance the floor past another shard's pipeline; a shard that has
    logged all it was given — or was never given anything — bounds
    nothing."""
    cloud, service = make_service(seed=511, commit_log_enabled=True,
                                  leader_shards=4)
    c = service.connect()
    paths = ["/a", "/b", "/c", "/d", "/e"]
    for p in paths:
        c.create(p, b"x")
    shards_hit = {service.shard_of(p) for p in paths}
    assert len(shards_hit) > 1  # the workload actually spans shards
    heads = service.system_store.table(SYSTEM_STATE).raw(LOG_HEAD_KEY)
    per_shard = [heads.get(f"s{i}", 0)
                 for i in range(service.config.leader_shards)]
    # nothing in flight: every shard has logged all it was given
    assert [queue.issued for queue in service.leader_queues] == per_shard
    assert min(per_shard) < max(per_shard)
    floor = snapshot_now(cloud, service)
    assert floor == max(per_shard)
