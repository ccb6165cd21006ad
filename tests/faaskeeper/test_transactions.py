"""Atomic multi()/transaction() semantics (ZooKeeper's multi, Section 3.5).

Covers all-or-nothing commits, per-op typed results and errors, rollback
on mid-batch failures, duplicate-delivery idempotence, behaviour under
leader_shards in {1, 4} (including cross-shard transactions through the
coordinator shard), exactly-once watch delivery per committed multi, and
the coalescing interplay (a multi supersedes earlier pending writes).
"""

import pytest

from repro.faaskeeper import (
    BadArgumentsError,
    BadVersionError,
    CheckOp,
    CheckResult,
    CreateOp,
    DeleteOp,
    NodeExistsError,
    RolledBackError,
    SetDataOp,
    TransactionFailedError,
    WriteResult,
)
from repro.faaskeeper.layout import shard_of_path
from .conftest import make_service


def _cross_shard_pair(num_shards):
    names = [f"t{i}" for i in range(64)]
    first = names[0]
    for other in names[1:]:
        if shard_of_path(f"/{other}", num_shards) != shard_of_path(f"/{first}", num_shards):
            return first, other
    raise AssertionError("no cross-shard pair found")  # pragma: no cover


# ------------------------------------------------------------ basic commits
@pytest.mark.parametrize("shards", [1, 4])
def test_multi_commits_atomically(shards):
    cloud, service = make_service(seed=101, leader_shards=shards)
    c = service.connect()
    c.create("/app", b"")
    c.create("/app/cfg", b"v1")
    c.create("/staging", b"tmp")
    results = c.multi([
        CheckOp("/app/cfg", version=0),
        SetDataOp("/app/cfg", b"v2"),
        CreateOp("/app/new", b"n"),
        DeleteOp("/staging"),
    ])
    assert results[0] == CheckResult(path="/app/cfg", version=0)
    assert isinstance(results[1], WriteResult)
    assert results[1].version == 1 and results[1].txid > 0
    assert results[2] == "/app/new"
    assert results[3] is None
    assert c.get_data("/app/cfg")[0] == b"v2"
    assert c.get_data("/app/new")[0] == b"n"
    assert c.exists("/staging") is None
    # all member writes share one transaction id
    _, stat_cfg = c.get_data("/app/cfg")
    _, stat_new = c.get_data("/app/new")
    assert stat_cfg.modified_tx == stat_new.created_tx == results[1].txid


def test_multi_members_see_earlier_members(client):
    """Later ops validate against earlier ops' staged effects (ZooKeeper
    multi semantics): create a node and write to it in the same batch."""
    results = client.multi([
        CreateOp("/chain", b"first"),
        SetDataOp("/chain", b"second"),
        CreateOp("/chain/leaf", b"x"),
    ])
    assert results[1].version == 1
    data, stat = client.get_data("/chain")
    assert data == b"second" and stat.version == 1
    assert client.get_children("/chain") == ["leaf"]


def test_multi_same_path_watch_fires_once(service):
    cloud = service.cloud
    writer = service.connect()
    watcher = service.connect()
    writer.create("/w", b"")
    writer.create("/w/x", b"v0")
    hits = []
    watcher.get_data("/w/x", watch=lambda ev: hits.append(ev))
    results = writer.multi([
        SetDataOp("/w/x", b"v1"),
        SetDataOp("/w/x", b"v2"),
    ])
    cloud.run(until=cloud.now + 20_000)
    assert len(hits) == 1  # two member writes, one node, one notification
    assert hits[0].txid == results[0].txid
    for region in service.config.regions:
        assert service.epoch_ledger.snapshot(region) == []


@pytest.mark.parametrize("shards", [1, 4])
def test_multi_watches_fire_once_per_path(shards):
    cloud, service = make_service(seed=102, leader_shards=shards)
    writer = service.connect()
    watcher = service.connect()
    for name in ("a", "b"):
        writer.create(f"/{name}", b"")
        writer.create(f"/{name}/x", b"v0")
    hits = []
    watcher.get_data("/a/x", watch=lambda ev: hits.append(ev))
    watcher.get_data("/b/x", watch=lambda ev: hits.append(ev))
    results = writer.multi([
        SetDataOp("/a/x", b"w"),
        SetDataOp("/b/x", b"w"),
    ])
    cloud.run(until=cloud.now + 30_000)
    assert sorted(h.path for h in hits) == ["/a/x", "/b/x"]
    assert {h.txid for h in hits} == {results[0].txid}  # the batch txid
    for region in service.config.regions:
        assert service.epoch_ledger.snapshot(region) == []


# ------------------------------------------------------------ rollback
@pytest.mark.parametrize("shards", [1, 4])
def test_multi_rolls_back_on_mid_batch_bad_version(shards):
    cloud, service = make_service(seed=103, leader_shards=shards)
    c = service.connect()
    c.create("/a", b"orig")
    c.create("/b", b"keep")
    with pytest.raises(TransactionFailedError) as excinfo:
        c.multi([
            SetDataOp("/a", b"changed"),
            SetDataOp("/b", b"bumped", version=7),   # stale version: culprit
            CreateOp("/c", b"never"),
        ])
    results = excinfo.value.results
    assert isinstance(results[0], RolledBackError)
    assert isinstance(results[1], BadVersionError)
    assert isinstance(results[2], RolledBackError)
    # nothing committed: versions, data and the child list are untouched
    data_a, stat_a = c.get_data("/a")
    assert data_a == b"orig" and stat_a.version == 0
    assert c.get_data("/b")[0] == b"keep"
    assert c.exists("/c") is None
    raw = service.system_store.table("fk-system-nodes").raw("/a")
    assert raw["version"] == 0 and raw["transactions"] == []


def test_multi_rolls_back_on_node_exists(client):
    client.create("/dup", b"")
    with pytest.raises(TransactionFailedError) as excinfo:
        client.multi([CreateOp("/fresh", b""), CreateOp("/dup", b"")])
    assert isinstance(excinfo.value.results[0], RolledBackError)
    assert isinstance(excinfo.value.results[1], NodeExistsError)
    assert client.exists("/fresh") is None  # rolled back with the batch


def test_transaction_builder_and_context_manager(client):
    client.create("/cfg", b"v1")
    # kazoo-style: commit() returns per-op results, failures embedded
    t = client.transaction()
    t.check("/cfg", version=0).set_data("/cfg", b"v2").create("/cfg2", b"")
    results = t.commit()
    assert results[0] == CheckResult(path="/cfg", version=0)
    assert results[1].version == 1
    assert results[2] == "/cfg2"
    # failed commit: embedded exceptions, nothing raised, nothing applied
    t = client.transaction()
    results = t.check("/cfg", version=0).set_data("/cfg", b"v3").commit()
    assert isinstance(results[0], BadVersionError)
    assert isinstance(results[1], RolledBackError)
    assert client.get_data("/cfg")[0] == b"v2"
    # context manager commits on clean exit
    with client.transaction() as txn:
        txn.create("/cm", b"x")
    assert client.get_data("/cm")[0] == b"x"


def test_empty_and_malformed_multi_rejected(client):
    with pytest.raises(BadArgumentsError):
        client.multi([])
    with pytest.raises(BadArgumentsError):
        client.multi(["not an operation"])
    with pytest.raises(BadArgumentsError):
        client.multi([CreateOp("relative/path")])


def test_check_only_multi(client):
    """A guard-only multi verifies under locks and answers directly."""
    client.create("/g", b"")
    client.set_data("/g", b"x")
    results = client.multi([CheckOp("/g", version=1), CheckOp("/g")])
    assert results == [CheckResult(path="/g", version=1),
                       CheckResult(path="/g", version=1)]
    with pytest.raises(TransactionFailedError):
        client.multi([CheckOp("/g", version=0)])
    with pytest.raises(TransactionFailedError):
        client.multi([CheckOp("/missing")])


# ------------------------------------------------------------ sequencing
def test_multi_sequence_and_ephemeral(service):
    cloud = service.cloud
    owner = service.connect()
    observer = service.connect()
    owner.create("/q", b"")
    results = owner.multi([
        CreateOp("/q/task-", sequence=True),
        CreateOp("/q/task-", sequence=True),
        CreateOp("/q/worker", ephemeral=True),
    ])
    assert results[0] == "/q/task-0000000000"
    assert results[1] == "/q/task-0000000001"
    assert observer.exists("/q/worker").ephemeral_owner == owner.session_id
    owner.close()
    cloud.run(until=cloud.now + 20_000)
    assert observer.exists("/q/worker") is None  # ephemeral cleaned up
    assert observer.get_children("/q") == ["task-0000000000", "task-0000000001"]


def test_multi_create_then_delete_same_path(client):
    client.create("/p", b"")
    client.multi([CreateOp("/p/tmp", b"x"), DeleteOp("/p/tmp")])
    assert client.exists("/p/tmp") is None
    assert client.get_children("/p") == []


# ------------------------------------------------------------ sharding
def test_cross_shard_multi_commits_atomically():
    cloud, service = make_service(seed=104, leader_shards=4)
    a, b = _cross_shard_pair(4)
    c = service.connect()
    c.create(f"/{a}", b"")
    c.create(f"/{b}", b"")
    c.create(f"/{a}/x", b"v0")
    c.create(f"/{b}/x", b"v0")
    assert service.shard_of(f"/{a}/x") != service.shard_of(f"/{b}/x")
    results = c.multi([
        SetDataOp(f"/{a}/x", b"both"),
        SetDataOp(f"/{b}/x", b"both"),
    ])
    assert results[0].txid == results[1].txid
    assert c.get_data(f"/{a}/x")[0] == b"both"
    assert c.get_data(f"/{b}/x")[0] == b"both"
    cloud.run(until=cloud.now + 30_000)
    for path in (f"/{a}/x", f"/{b}/x"):
        raw = service.system_store.table("fk-system-nodes").raw(path)
        assert raw["transactions"] == []
    # interleaves correctly with ordinary single-op traffic afterwards
    assert c.set_data(f"/{a}/x", b"after").version == 2


def test_cross_shard_multi_interleaved_with_writes():
    """Multis and singles to the same paths from one session stay in
    request order across shards (fences + per-path pending gates)."""
    cloud, service = make_service(seed=105, leader_shards=4,
                                  leader_coalesce=False)
    a, b = _cross_shard_pair(4)
    c = service.connect()
    c.create(f"/{a}", b"")
    c.create(f"/{b}", b"")
    c.create(f"/{a}/x", b"")
    c.create(f"/{b}/x", b"")
    futures = [
        c.set_data_async(f"/{a}/x", b"s1"),
        c.multi_async([SetDataOp(f"/{a}/x", b"m1"),
                       SetDataOp(f"/{b}/x", b"m1")]),
        c.set_data_async(f"/{b}/x", b"s2"),
        c.multi_async([SetDataOp(f"/{a}/x", b"m2"),
                       SetDataOp(f"/{b}/x", b"m2")]),
    ]
    cloud.run(until=cloud.now + 120_000)
    assert all(f.done for f in futures)
    [f.wait() for f in futures]
    assert c.get_data(f"/{a}/x")[0] == b"m2"
    assert c.get_data(f"/{b}/x")[0] == b"m2"
    assert c.get_data(f"/{a}/x")[1].version == 3
    assert c.get_data(f"/{b}/x")[1].version == 3


def test_multi_final_state_matches_across_shard_counts():
    def final_state(shards):
        cloud, service = make_service(seed=106, leader_shards=shards)
        c = service.connect()
        for i in range(4):
            c.create(f"/t{i}", b"")
        c.multi([CreateOp(f"/t{i}/x", b"v0") for i in range(4)])
        c.multi([SetDataOp(f"/t{i}/x", f"v{i}".encode()) for i in range(4)]
                + [CreateOp("/t0/extra", b"e")])
        c.multi([DeleteOp("/t3/x"), SetDataOp("/t3", b"mark")])
        cloud.run(until=cloud.now + 30_000)
        out = {}
        for i in range(3):
            data, stat = c.get_data(f"/t{i}/x")
            out[f"/t{i}/x"] = (data, stat.version)
        out["t0 children"] = c.get_children("/t0")
        out["t3 children"] = c.get_children("/t3")
        out["t3 data"] = c.get_data("/t3")[0]
        return out

    assert final_state(1) == final_state(4)


# ------------------------------------------------------------ coalescing
def test_multi_supersedes_pending_writes_to_same_paths():
    """With coalescing on, a multi later in the delivery batch supersedes
    earlier pending single writes to its paths, and every acknowledged
    write is still readable afterwards."""
    cloud, service = make_service(seed=107, leader_shards=2)
    c = service.connect()
    c.create("/t", b"")
    c.create("/t/hot", b"")
    c.create("/t/cold", b"")
    counts = {"writes": 0}
    original_write = service.user_store.write_node

    def spy(ctx, region, path, image):
        counts["writes"] += 1
        return (yield from original_write(ctx, region, path, image))

    service.user_store.write_node = spy
    futures = [c.set_data_async("/t/hot", f"v{i}".encode()) for i in range(6)]
    futures.append(c.multi_async([SetDataOp("/t/hot", b"final"),
                                  SetDataOp("/t/cold", b"final")]))
    cloud.run(until=cloud.now + 120_000)
    assert all(f.done and f.event.ok for f in futures)
    assert counts["writes"] < 8  # superseded singles were skipped
    assert c.get_data("/t/hot")[0] == b"final"
    assert c.get_data("/t/hot")[1].version == 7
    assert c.get_data("/t/cold")[0] == b"final"


# ------------------------------------------------------------ fault tolerance
def test_multi_duplicate_delivery_is_idempotent():
    """Crash after commit (➃): the redelivered envelope is deduplicated by
    the session watermark — every member applies exactly once."""
    cloud, service = make_service(seed=108)
    c = service.connect()
    c.create("/a", b"")
    c.create("/b", b"")
    service.follower_fn.plan_crash(
        "after_commit", invocations=[service.follower_fn.invocations + 1])
    fut = c.multi_async([SetDataOp("/a", b"once"), SetDataOp("/b", b"once")])
    cloud.run(until=cloud.now + 30_000)
    assert fut.done
    results = fut.wait()
    assert [r.version for r in results] == [1, 1]
    for path in ("/a", "/b"):
        data, stat = c.get_data(path)
        assert data == b"once" and stat.version == 1  # not applied twice


def test_multi_crash_before_push_retried_transparently():
    cloud, service = make_service(seed=109)
    c = service.connect()
    c.create("/a", b"")
    service.follower_fn.plan_crash(
        "after_validate", invocations=[service.follower_fn.invocations + 1])
    results = c.multi([SetDataOp("/a", b"v1"), CreateOp("/a/child", b"")])
    assert results[0].version == 1
    assert c.get_data("/a/child")[0] == b""
    assert service.follower_fn.failures == 1


def test_transaction_context_manager_raises_on_abort(client):
    """The with-form has no results list to hand back, so a rolled-back
    batch raises instead of failing silently (unlike commit())."""
    client.create("/cfg", b"v1")
    with pytest.raises(TransactionFailedError):
        with client.transaction() as txn:
            txn.check("/cfg", version=99)
            txn.set_data("/cfg", b"v2")
    assert client.get_data("/cfg")[0] == b"v1"  # nothing applied


def test_transaction_not_resubmitted_by_with_block(client):
    """An explicit commit() inside a with-block must not be resubmitted on
    exit, and a committed builder refuses reuse (kazoo semantics)."""
    with client.transaction() as txn:
        txn.create("/once", b"x")
        results = txn.commit()
    assert results == ["/once"]  # __exit__ did not double-submit
    assert client.get_data("/once")[0] == b"x"
    with pytest.raises(BadArgumentsError):
        txn.commit_async()


def test_multi_create_then_touch_crash_after_push_recovers():
    """TryCommit of a create-then-set batch: the set's overlay-observed
    version must not become a storage guard (the node does not exist in
    the store yet) — the leader still commits the whole batch."""
    cloud, service = make_service(seed=111, follower_max_receive=1)
    c = service.connect()
    c.create("/p", b"")
    service._session_queues[c.session_id].on_drop = None
    service.follower_fn.plan_crash(
        "after_push", invocations=[service.follower_fn.invocations + 1])
    fut = c.multi_async([CreateOp("/p/x", b"a"), SetDataOp("/p/x", b"b")])
    cloud.run(until=cloud.now + 30_000)
    assert fut.done
    results = fut.wait()
    assert results[0] == "/p/x" and results[1].version == 1
    data, stat = c.get_data("/p/x")
    assert data == b"b" and stat.version == 1
    raw = service.system_store.table("fk-system-nodes").raw("/p/x")
    assert raw["version"] == 1 and raw["transactions"] == []
