"""The asynchronous distributor stage: consistency against the visibility
watermark (read-your-writes, Z2 session order, Z4 epoch stalls), write
coalescing across batches, watch-fan-out ownership and accounting."""

import dataclasses

import pytest

from repro.faaskeeper import FaaSKeeperConfig, SetDataOp
from repro.faaskeeper.layout import SYSTEM_STATE, replicated_key
from ..helpers.metrics import total
from .conftest import crash_next, make_service

TWO_REGIONS = ["us-east-1", "eu-west-1"]


def settle(cloud, ms=5000):
    cloud.run(until=cloud.now + ms)


def make_distributed(seed=2024, regions=TWO_REGIONS, shards=1, **kw):
    return make_service(seed=seed, regions=list(regions),
                        leader_shards=shards, distributor_enabled=True, **kw)


# ---------------------------------------------------------------- config
def test_ack_on_commit_requires_distributor():
    """The ack follows the pipeline: on replicate inline, on commit with
    the distributor.  ``ack_policy`` is no field; it may only name that."""
    for distributor, other in ((False, "on_commit"), (True, "on_replicate")):
        with pytest.raises(ValueError):
            FaaSKeeperConfig(distributor_enabled=distributor, ack_policy=other)
        with pytest.raises(ValueError):
            FaaSKeeperConfig(distributor_enabled=distributor,
                             ack_policy="bogus")
    FaaSKeeperConfig(ack_policy="on_replicate")
    FaaSKeeperConfig(distributor_enabled=True, ack_policy="on_commit")
    assert "ack_policy" not in {
        field.name for field in dataclasses.fields(FaaSKeeperConfig)}


def test_distributor_deploys_one_queue_and_function_per_region():
    cloud, service = make_distributed()
    stage = service.distribution
    assert set(stage.queues) == set(TWO_REGIONS)
    assert stage.fns["us-east-1"].spec.name == "fk-distributor"
    assert stage.fns["eu-west-1"].spec.name == "fk-distributor-eu-west-1"
    assert stage.logics["us-east-1"].primary
    assert not stage.logics["eu-west-1"].primary
    # default deployments carry no distributor at all
    _cloud, plain = make_service()
    assert plain.distribution is None and plain.visibility_board is None


# ---------------------------------------------------------------- RYW
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("ack", ["on_commit", "on_replicate"])
def test_read_your_writes_through_the_watermark(shards, ack):
    """An ack at commit (the distributor) reads through the watermark; an
    ack on replicate (the inline pipeline) needs none."""
    cloud, service = make_service(
        regions=list(TWO_REGIONS), leader_shards=shards,
        distributor_enabled=ack == "on_commit", ack_policy=ack)
    client = service.connect()
    client.create("/ryw", b"")
    for i in range(6):
        client.set_data("/ryw", f"v{i}".encode())
        data, stat = client.get_data("/ryw")
        assert data == f"v{i}".encode()
    settle(cloud)


@pytest.mark.parametrize("shards", [1, 4])
def test_pipelined_writes_then_read_sees_the_last(shards):
    """Async writes ack before replication; a read issued after them must
    wait for the region watermark, not just the responses."""
    cloud, service = make_distributed(shards=shards)
    client = service.connect()
    client.create("/p", b"")
    futures = [client.set_data_async("/p", f"b{i}".encode())
               for i in range(8)]
    data, _stat = client.get_data("/p")
    assert data == b"b7"
    assert all(f.done for f in futures)
    settle(cloud)


def test_reader_waits_for_its_own_region_only():
    """The barrier rides the watermark of the region the session reads
    from; a second-region session still sees its own writes there."""
    cloud, service = make_distributed()
    remote = service.connect(region="eu-west-1")
    remote.create("/r", b"")
    remote.set_data("/r", b"remote")
    data, _ = remote.get_data("/r")
    assert data == b"remote"
    settle(cloud)


# ---------------------------------------------------------------- Z2
@pytest.mark.parametrize("shards", [1, 4])
def test_z2_session_writes_commit_in_request_order(shards):
    cloud, service = make_distributed(shards=shards)
    client = service.connect()
    client.create("/a", b"")
    client.create("/b", b"")
    futures = []
    for i in range(5):
        futures.append(client.set_data_async("/a", f"a{i}".encode()))
        futures.append(client.set_data_async("/b", f"b{i}".encode()))
    settle(cloud, 60_000)
    txids = [f.event.value.txid for f in futures]
    assert all(f.done and f.event.ok for f in futures)
    # Monotone txids across the session's interleaved paths = commits
    # followed request order even when the paths live on distinct shards.
    assert txids == sorted(txids)
    assert service.connect().get_data("/a")[0] == b"a4"
    settle(cloud)


# ---------------------------------------------------------------- Z4
@pytest.mark.parametrize("shards", [1, 4])
def test_z4_notification_before_later_data(shards):
    """A client with a pending notification for txid u must not read data
    of txid v > u before the notification is delivered — the epoch ids now
    travel through the distributor's watch stage."""
    cloud, service = make_distributed(shards=shards)
    writer = service.connect()
    watcher = service.connect()
    order = []
    writer.create("/a", b"")
    writer.create("/b", b"")
    # Another session's read may legally miss a just-acked create until the
    # distributor lands it (ZooKeeper-style staleness); let it replicate.
    settle(cloud, 5_000)
    watcher.get_data("/a", watch=lambda ev: order.append(("watch", ev.txid)))
    writer.set_data("/a", b"x")
    w2 = writer.set_data("/b", b"y")
    data, stat = watcher.get_data("/b")
    order.append(("read-b", stat.modified_tx))
    if stat.modified_tx >= w2.txid:
        assert order[0][0] == "watch"
    settle(cloud)


def test_z4_epoch_counters_cleared_after_distributor_fanout():
    cloud, service = make_distributed()
    client = service.connect()
    client.create("/a", b"")
    client.get_data("/a", watch=lambda ev: None)
    client.set_data("/a", b"x")
    settle(cloud, 10_000)
    for region in service.config.regions:
        raw = service.system_store.table(SYSTEM_STATE).raw(f"epoch:{region}")
        assert raw["items"] == []


def test_notification_implies_new_data_readable():
    """Replicate-then-notify survives the async split: when a watch event
    arrives, the triggering write is already visible in every region, so a
    read issued from the callback observes the new data (inline step ➌
    always preceded step ➍; the distributor defers consume + fan-out
    behind the visibility watermark to keep that order)."""
    cloud, service = make_distributed()
    writer = service.connect()
    watcher = service.connect(region="eu-west-1")
    writer.create("/n", b"v1")
    settle(cloud)
    reads = []
    watcher.get_data("/n", watch=lambda ev: reads.append(
        watcher.get_data_async("/n")))
    writer.set_data("/n", b"v2")
    settle(cloud, 60_000)
    assert len(reads) == 1 and reads[0].done
    data, _stat = reads[0].event.value
    assert data == b"v2"


def test_watch_fanout_owned_by_distributor():
    cloud, service = make_distributed()
    client = service.connect()
    events = []
    client.create("/w", b"")
    client.get_data("/w", watch=events.append)
    client.set_data("/w", b"x")
    settle(cloud)
    assert len(events) == 1
    deliveries = service.metrics.get("fk_watch_deliveries_total")
    assert {labels: child.value for labels, child in deliveries.items()} \
        == {("distributor", "0"): 1}


# ---------------------------------------------------------------- watermark
def test_replicated_tx_watermark_written_to_system_store():
    cloud, service = make_distributed()
    client = service.connect()
    client.create("/wm", b"")
    res = client.set_data("/wm", b"x")
    settle(cloud, 10_000)
    for region in service.config.regions:
        raw = service.system_store.table(SYSTEM_STATE).raw(
            replicated_key(region))
        assert raw["txid"] >= res.txid
        assert service.visibility_board.watermark[region] >= res.txid


def test_a_rejected_write_burns_its_txid():
    """The follower dies between push and commit; its redelivery commits
    the write under a second txid, so the leader's TryCommit of the first
    meets a version conflict and rejects it.  That txid never replicates:
    the leader burns it, and after more writes and a drain every region's
    visibility floor has passed it with nothing left above."""
    cloud, service = make_distributed(seed=1)
    board = service.visibility_board
    burned = []
    burn = board.burn
    board.burn = lambda txid: (burned.append(txid), burn(txid))
    client = service.connect()
    client.create("/v", b"")
    settle(cloud)
    crash_next(service.follower_fn, "after:send#1")
    client.set_data_async("/v", b"x", version=0)
    settle(cloud, 60_000)
    for i in range(3):
        client.set_data("/v", f"y{i}".encode())
    settle(cloud)
    assert len(burned) == 1
    for region in service.config.regions:
        assert board._above[region] == set()
        assert board._floor[region] == board.watermark[region] > burned[0]
    read = client.get_data_async("/v")
    settle(cloud, 1_000)
    assert read.done and read.wait()[0] == b"y2"


def test_cross_batch_coalescing_skips_superseded_writes():
    """A burst of same-path writes acked at commit time collapses to far
    fewer user-store writes than the leader's inline pipeline would pay,
    and the final image is the last acknowledged value."""
    cloud, service = make_distributed()
    client = service.connect()
    client.create("/hot", b"")
    futures = [client.set_data_async("/hot", f"v{i}".encode())
               for i in range(24)]
    settle(cloud, 120_000)
    assert all(f.done and f.event.ok for f in futures)
    assert client.get_data("/hot")[0] == b"v23"
    assert total(service, "fk_distributor_coalesced_writes_total") > 0
    settle(cloud)


# ---------------------------------------------------------------- multi
@pytest.mark.parametrize("shards", [1, 4])
def test_multi_through_the_distributor(shards):
    cloud, service = make_distributed(shards=shards)
    client = service.connect()
    client.create("/m", b"")
    for i in range(4):
        client.create(f"/m/n{i}", b"")
    results = client.multi([SetDataOp(f"/m/n{i}", b"batch") for i in range(4)])
    assert all(r.txid == results[0].txid for r in results)
    for i in range(4):
        assert client.get_data(f"/m/n{i}")[0] == b"batch"
    settle(cloud)


# ---------------------------------------------------------------- cache
def test_client_cache_respects_watermark():
    """A cache hit must not surface before the watermark covers the
    session's acked writes, and the session's own writes still invalidate
    the touched entries (read-your-writes through the cache)."""
    cloud, service = make_distributed(client_cache_entries=16)
    client = service.connect()
    client.create("/c", b"v0")
    assert client.get_data("/c")[0] == b"v0"   # miss, admits entry
    assert client.get_data("/c")[0] == b"v0"   # hit
    client.set_data("/c", b"v1")               # acks before replication
    assert client.get_data("/c")[0] == b"v1"   # invalidated + waited
    settle(cloud)
    assert client._cache.hits >= 1


# ---------------------------------------------------------------- accounting
def test_invocation_accounting_splits_out_the_distributor():
    cloud, service = make_distributed()
    client = service.connect()
    client.create("/acct", b"")
    for i in range(5):
        client.set_data("/acct", b"x" * 256)
    settle(cloud, 10_000)
    split = service.cost_breakdown()
    assert split["distributor"] > 0
    assert split["leader"] > 0
    # default deployments report a zero distributor share
    _cloud2, plain = make_service()
    c2 = plain.connect()
    c2.create("/acct", b"")
    assert plain.cost_breakdown()["distributor"] == 0.0


def test_ack_on_commit_is_faster_than_inline_replication():
    """The acceptance property at test scale: client-perceived write
    latency at regions=2 improves by >= 30% once the distributor owns
    replication and the ack moves to commit time."""
    def median_write(distributor):
        cloud, service = make_service(
            regions=list(TWO_REGIONS), distributor_enabled=distributor)
        client = service.connect()
        client.create("/lat", b"")
        samples = []
        for _ in range(15):
            t0 = cloud.now
            client.set_data("/lat", b"x" * 512)
            samples.append(cloud.now - t0)
        settle(cloud, 30_000)
        samples.sort()
        return samples[len(samples) // 2]

    assert median_write(True) < 0.7 * median_write(False)
