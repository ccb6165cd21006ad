"""Commit log, fuzzy snapshots, compaction and recovery (snapshot.py).

ZooKeeper's durability design on the FaaSKeeper layout: the leader logs
every committed transaction's replication writes, a fuzzy snapshot folds
the log into a per-path checkpoint concurrent with commits, compaction
truncates the folded prefix (clamped by the slowest cursor: every region's
``replicated_tx`` watermark and the outbox's published mark), and a
region's user store rebuilds from snapshot + suffix after replica loss.
"""

import pytest

from repro.faaskeeper import FaaSKeeperConfig
from repro.faaskeeper.chaos import (
    wipe_system_tables,
)
from repro.faaskeeper.layout import (
    LOG_HEAD_KEY,
    SNAPSHOT_META_KEY,
    SYSTEM_LOG,
    SYSTEM_NODES,
    SYSTEM_SESSIONS,
    SYSTEM_SNAPSHOT,
    SYSTEM_STATE,
    SYSTEM_WATCHES,
    log_key,
    replicated_key,
)
from .conftest import make_service


def snapshot_now(cloud, service):
    return cloud.run_process(service.snapshots.take_snapshot(service.system_ctx))


def compact_now(cloud, service):
    if service.outbox is not None:
        # An unpublished record pins the log (FK_FORCE_OUTBOX=1 leg): let
        # the publisher's cursor catch up with the fold's first.
        while service.outbox.drain()["backlog"]:
            pass
    return cloud.run_process(service.snapshots.compact(service.system_ctx))


def recover_now(cloud, service, region, cold):
    return cloud.run_process(service.snapshots.recover_region(
        service.system_ctx, region, cold=cold))


def log_txids(service):
    return sorted(int(k) for k in service.system_store.table(SYSTEM_LOG).keys())


def test_default_deployment_has_no_log():
    """The commit log is opt-in: the default deployment neither creates
    the tables nor pays any per-commit work.  (``outbox_enabled=False``
    pins the FK_FORCE_OUTBOX CI leg back to the paper's default — the
    override would otherwise force the commit log on.)"""
    cloud, service = make_service(seed=500, outbox_enabled=False)
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
    cloud, service = make_service(seed=509, commit_log_enabled=True,
                                  snapshot_auto_ms=5_000.0)
    c = service.connect()
    c.create("/a", b"v0")
    c.set_data("/a", b"v1")
    cloud.run(until=cloud.now + 30_000)
    assert service.metrics.get("fk_snapshots_taken_total").value >= 1
    assert service.metrics.get("fk_log_records_compacted_total").value >= 1
    snap = service.system_store.table(SYSTEM_SNAPSHOT)
    assert snap.raw("/a")["image"]["data"] == b"v1"


def test_snapshot_auto_requires_commit_log():
    with pytest.raises(ValueError):
        FaaSKeeperConfig(snapshot_auto_ms=1000.0)


def test_redelivered_append_does_not_regress_log_head():
    """A leader crash after the log append redelivers the batch; the
    second append is a no-op and the head watermark never regresses."""
    cloud, service = make_service(seed=510, commit_log_enabled=True)
    c = service.connect()
    c.create("/a", b"v0")
    service.leader_fns[0].plan_crash(
        "leader_after_log",
        invocations=[service.leader_fns[0].invocations + 1])
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


def test_recover_system_rebuilds_wiped_system_region():
    """Satellite regression: losing the *system* region (node table,
    watch instances, session records) is recoverable from durables —
    snapshot images + ``sys:`` checkpoints + the log suffix.  The
    rebuilt deployment must keep serving: the pre-wipe watch still
    fires, the sequential counter does not reuse suffixes, and session
    teardown still reaps its ephemerals."""
    cloud, service = make_service(seed=512, commit_log_enabled=True)
    writer = service.connect()
    watcher = service.connect()
    writer.create("/a", b"v0")
    writer.create("/a/kid", b"k0")
    writer.create("/eph", b"e", ephemeral=True)
    seq1 = writer.create("/a/item-", b"s", sequence=True)
    fired = []
    watcher.get_data("/a", watch=fired.append)
    snapshot_now(cloud, service)          # checkpoints watches + sessions
    writer.set_data("/a/kid", b"k1")      # suffix: logged, not snapshotted
    writer.create("/late", b"fresh")

    nodes = service.system_store.table(SYSTEM_NODES)
    paths = ["/", "/a", "/a/kid", "/eph", "/late", seq1]
    before = {p: dict(nodes.raw(p)) for p in paths}
    def table_image(name):
        table = service.system_store.table(name)
        return {key: table.raw(key) for key in table.keys()}

    before_watches = table_image(SYSTEM_WATCHES)
    before_sessions = table_image(SYSTEM_SESSIONS)

    wipe_system_tables(service)
    assert nodes.raw("/a") is None  # the wipe really happened
    stats = cloud.run_process(
        service.snapshots.recover_system(service.system_ctx))
    assert stats["replayed"] >= 2 and stats["nodes"] >= len(paths)
    assert stats["watches"] == len(before_watches) >= 1
    assert stats["sessions"] == len(before_sessions) == 2

    for path in paths:
        got = nodes.raw(path)
        assert got is not None, path
        for field in ("version", "cversion", "modified_tx", "created_tx",
                      "ephemeral_owner"):
            assert got.get(field) == before[path].get(field), (path, field)
        assert sorted(got.get("children", [])) == \
            sorted(before[path].get("children", [])), path
    assert nodes.raw("/a")["cseq"] >= before["/a"]["cseq"]
    assert table_image(SYSTEM_WATCHES) == before_watches
    recovered_sessions = table_image(SYSTEM_SESSIONS)
    assert set(recovered_sessions) == set(before_sessions)
    assert recovered_sessions[writer.session_id].get("ephemeral") == \
        before_sessions[writer.session_id].get("ephemeral")

    # The rebuilt region serves: the checkpointed watch instance fires...
    writer.set_data("/a", b"v1")
    cloud.run(until=cloud.now + 10_000)
    assert len(fired) == 1
    # ...the recovered cseq never reuses a sequential suffix...
    seq2 = writer.create("/a/item-", b"s2", sequence=True)
    assert seq2 != seq1 and seq2 > seq1
    # ...and closing the session reaps the recovered ephemeral (tombstone
    # in the system table until the GC sweep, gone from the user store).
    writer.close()
    cloud.run(until=cloud.now + 10_000)
    eph = nodes.raw("/eph")
    assert eph is not None and not eph["exists"]
    assert service.user_store.peek(service.config.primary_region,
                                   "/eph") is None


def test_sharded_floor_is_min_over_shards():
    """With several shards the snapshot floor is the minimum per-shard
    head: traffic on one shard cannot advance the floor past another
    shard's unlogged pipeline."""
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
    floor = snapshot_now(cloud, service)
    assert floor == min(per_shard)
