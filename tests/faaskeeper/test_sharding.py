"""Sharded leader pipeline invariants.

Covers the partition map, shards=1 being behaviorally identical to the
paper's single-leader deployment, per-session ordering across shards
(session fences), cross-shard watch delivery with epoch accounting, root
(cross-shard parent) metadata convergence, and write coalescing.
"""

import pytest

from repro.cloud import Cloud
from repro.faaskeeper import FaaSKeeperConfig
from repro.faaskeeper.distributor import GateBoard
from repro.faaskeeper.layout import shard_of_path, top_component
from .conftest import make_service


def _two_cross_shard_subtrees(num_shards):
    """Two top-level names guaranteed to live on different shards."""
    names = [f"t{i}" for i in range(64)]
    first = names[0]
    for other in names[1:]:
        if shard_of_path(f"/{other}", num_shards) != shard_of_path(f"/{first}", num_shards):
            return first, other
    raise AssertionError("no cross-shard pair found")  # pragma: no cover


# ------------------------------------------------------------ partition map
def test_shard_map_is_stable_and_subtree_affine():
    assert shard_of_path("/a/b/c", 4) == shard_of_path("/a", 4)
    assert shard_of_path("/a/b", 4) == shard_of_path("/a/zzz/deep", 4)
    # root and shards=1 route to shard 0
    assert shard_of_path("/", 4) == 0
    assert shard_of_path("/anything/at/all", 1) == 0
    # the map covers every shard for a modest set of subtree names
    seen = {shard_of_path(f"/t{i}", 4) for i in range(32)}
    assert seen == {0, 1, 2, 3}
    assert top_component("/a/b") == "a"
    assert top_component("/a") == "a"
    assert top_component("/") == ""


def test_config_validates_shard_count():
    with pytest.raises(ValueError):
        FaaSKeeperConfig(leader_shards=0)
    assert FaaSKeeperConfig().coalesce_enabled is False
    assert FaaSKeeperConfig(leader_shards=4).coalesce_enabled is True
    assert FaaSKeeperConfig(leader_shards=4,
                            leader_coalesce=False).coalesce_enabled is False
    assert FaaSKeeperConfig(leader_coalesce=True).coalesce_enabled is True


# ------------------------------------------------------------ fence board
def test_fence_board_orders_waiters():
    cloud = Cloud.aws(seed=1)
    board = GateBoard(cloud.env)
    assert board.issue("s1") == 1
    assert board.issue("s1") == 2
    assert board.issue("s2") == 1  # sessions are independent
    assert board.mark("s1") == 0   # issuing is not applying
    order = []

    def waiter(fence):
        yield from board.wait("s1", fence - 1)
        order.append(fence)

    cloud.env.process(waiter(3))
    cloud.env.process(waiter(2))
    cloud.run(until=cloud.now + 1)
    assert order == []  # fence 1 not applied yet
    board.advance("s1", 1)
    cloud.run(until=cloud.now + 1)
    assert order == [2]
    board.advance("s1", 2)
    cloud.run(until=cloud.now + 1)
    assert order == [2, 3]
    board.advance("s1", 1)  # idempotent, never regresses
    assert board.mark("s1") == 2


# ------------------------------------------------------------ shards=1 parity
def _workload_fingerprint(seed, **config_kwargs):
    cloud, service = make_service(seed=seed, **config_kwargs)
    c = service.connect()
    events = []
    c.create("/a", b"")
    c.create("/a/x", b"v0")
    hits = []
    c.get_data("/a/x", watch=lambda ev: hits.append(ev.txid))
    for i in range(4):
        res = c.set_data("/a/x", f"v{i}".encode())
        events.append((res.txid, res.version))
    data, stat = c.get_data("/a/x")
    cloud.run(until=cloud.now + 15_000)
    events.append((data, stat.version, stat.modified_tx, tuple(hits)))
    events.append(round(cloud.now, 6))
    events.append(round(sum(cloud.meter.by_service().values()), 12))
    return events


def test_shards1_identical_to_default_single_leader():
    """leader_shards=1 must be the paper's pipeline, not a near-copy: same
    txids, versions, watch events, virtual-clock timing and metered cost."""
    assert _workload_fingerprint(77) == _workload_fingerprint(77, leader_shards=1)


def test_shards1_deploys_legacy_topology():
    _cloud, service = make_service(seed=78, leader_shards=1)
    assert [q.name for q in service.leader_queues] == ["fk-leader-q"]
    assert [f.spec.name for f in service.leader_fns] == ["fk-leader"]
    assert service.fence_board is None
    # single-leader messages carry no fence fields
    captured = []
    original = service.leader_queues[0].send

    def spy(ctx, body, **kwargs):
        captured.append(body)
        return (yield from original(ctx, body, **kwargs))

    service.leader_queues[0].send = spy
    c = service.connect()
    c.create("/a", b"")
    assert captured and all("fence" not in body for body in captured)


def test_sharded_deploys_one_queue_and_leader_per_shard():
    _cloud, service = make_service(seed=79, leader_shards=4)
    assert [q.name for q in service.leader_queues] == [
        "fk-leader-q", "fk-leader-q-1", "fk-leader-q-2", "fk-leader-q-3"]
    assert [f.spec.name for f in service.leader_fns] == [
        "fk-leader", "fk-leader-1", "fk-leader-2", "fk-leader-3"]
    assert service.fence_board is not None
    logics = [s.logic for s in service.stages if s.kind == "leader"]
    assert [logic.shard for logic in logics] == [0, 1, 2, 3]


# ------------------------------------------------------------ functional
def test_sharded_and_single_leader_agree_on_final_state():
    def final_state(shards):
        cloud, service = make_service(seed=80, leader_shards=shards)
        c = service.connect()
        out = {}
        for i in range(6):
            c.create(f"/t{i}", b"")
            c.create(f"/t{i}/x", b"v0")
        for i in range(12):
            c.set_data(f"/t{i % 6}/x", f"v{i}".encode())
        c.delete("/t5/x")
        cloud.run(until=cloud.now + 15_000)
        for i in range(5):
            data, stat = c.get_data(f"/t{i}/x")
            out[f"/t{i}/x"] = (data, stat.version)
        out["/t5 children"] = c.get_children("/t5")
        out["/ children"] = c.get_children("/")
        return out

    assert final_state(1) == final_state(4)


def test_per_session_order_across_shards():
    """A session's writes land on different shards but their responses are
    delivered in request order (the fence guarantee: a shard leader starts
    write k+1 only after write k finished on its own shard)."""
    cloud, service = make_service(seed=81, leader_shards=4,
                                  leader_coalesce=False)
    a, b = _two_cross_shard_subtrees(4)
    c = service.connect()
    c.create(f"/{a}", b"")
    c.create(f"/{b}", b"")
    c.create(f"/{a}/x", b"")
    c.create(f"/{b}/x", b"")

    arrival = []
    original = c._deliver_response

    def spy(response):
        arrival.append(response.rid)
        original(response)

    c._deliver_response = spy
    futures = []
    for i in range(10):
        path = f"/{a}/x" if i % 2 == 0 else f"/{b}/x"
        futures.append(c.set_data_async(path, f"v{i}".encode()))
    cloud.run(until=cloud.now + 120_000)
    assert all(f.done for f in futures)
    results = [f.wait() for f in futures]
    # raw delivery order (before the client's completion chain) already
    # follows request order: leaders fence on the session sequence
    assert arrival == sorted(arrival)
    # txids were assigned from the shared sequence in request order
    txids = [r.txid for r in results]
    assert txids == sorted(txids)
    # both shards really were exercised
    shards_used = {service.shard_of(f"/{a}/x"), service.shard_of(f"/{b}/x")}
    assert len(shards_used) == 2
    assert c.get_data(f"/{a}/x")[0] == b"v8"
    assert c.get_data(f"/{b}/x")[0] == b"v9"


def test_per_session_completion_order_with_coalescing():
    """With write coalescing, raw deliveries of superseded writes are held
    to batch end, but the client still completes futures in request order
    and an acknowledged write is never read stale."""
    cloud, service = make_service(seed=87, leader_shards=4)
    a, b = _two_cross_shard_subtrees(4)
    c = service.connect()
    c.create(f"/{a}", b"")
    c.create(f"/{b}", b"")
    c.create(f"/{a}/x", b"")
    c.create(f"/{b}/x", b"")
    completion = []
    futures = []
    for i in range(12):
        path = f"/{a}/x" if i % 2 == 0 else f"/{b}/x"
        fut = c.set_data_async(path, f"v{i}".encode())
        fut.event.callbacks.append(lambda ev, i=i: completion.append(i))
        futures.append(fut)
    read = c.get_data_async(f"/{a}/x")
    cloud.run(until=cloud.now + 120_000)
    assert all(f.done for f in futures) and read.done
    assert completion == list(range(12))
    data, stat = read.wait()
    assert data == b"v10"  # the read (issued last) sees the final /a write
    assert stat.version == 6


def test_write_visible_before_next_cross_shard_ack():
    """Fence semantics: when write k+1 (on shard B) is acknowledged, write
    k (on shard A) has already been replicated to the user store."""
    cloud, service = make_service(seed=82, leader_shards=4)
    a, b = _two_cross_shard_subtrees(4)
    c = service.connect()
    c.create(f"/{a}", b"")
    c.create(f"/{b}", b"")
    c.create(f"/{a}/x", b"")
    c.create(f"/{b}/x", b"")

    write_times = {}
    store = service.user_store
    original_write = store.write_node

    def spy(ctx, region, path, image):
        result = yield from original_write(ctx, region, path, image)
        write_times.setdefault((path, image.get("version")), cloud.now)
        return result

    store.write_node = spy
    f1 = c.set_data_async(f"/{a}/x", b"first")
    f2 = c.set_data_async(f"/{b}/x", b"second")
    ack_times = {}
    f1.event.callbacks.append(lambda ev: ack_times.setdefault("f1", cloud.now))
    f2.event.callbacks.append(lambda ev: ack_times.setdefault("f2", cloud.now))
    cloud.run(until=cloud.now + 60_000)
    assert f1.done and f2.done
    assert write_times[(f"/{a}/x", 1)] <= ack_times["f2"]


def test_watches_fire_across_shards_and_epoch_drains():
    cloud, service = make_service(seed=83, leader_shards=4)
    a, b = _two_cross_shard_subtrees(4)
    writer = service.connect()
    watcher = service.connect()
    for name in (a, b):
        writer.create(f"/{name}", b"")
        writer.create(f"/{name}/x", b"v0")
    hits = []
    watcher.get_data(f"/{a}/x", watch=lambda ev: hits.append((a, ev.txid)))
    watcher.get_data(f"/{b}/x", watch=lambda ev: hits.append((b, ev.txid)))
    writer.set_data(f"/{a}/x", b"w")
    writer.set_data(f"/{b}/x", b"w")
    cloud.run(until=cloud.now + 30_000)
    assert sorted(name for name, _ in hits) == sorted([a, b])
    # watch txids order like the writes (shared txid sequence)
    assert hits[0][1] < hits[1][1] or hits[1][1] < hits[0][1]
    # epoch counters drained in every region once deliveries completed
    for region in service.config.regions:
        assert service.epoch_ledger.snapshot(region) == []
    # fan-out bookkeeping saw two different shards
    deliveries = service.metrics.get("fk_watch_deliveries_total")
    assert len({shard for (_origin, shard), _child in deliveries.items()}) == 2


def test_root_children_converge_across_shards():
    """The root is a cross-shard parent: concurrent top-level creates from
    several sessions must all end up in the root's user-store child list
    (the per-path pending-transaction gate orders its replication)."""
    cloud, service = make_service(seed=84, leader_shards=4)
    clients = [service.connect() for _ in range(3)]
    futures = []
    for i, c in enumerate(clients):
        for j in range(3):
            futures.append(c.create_async(f"/n{i}-{j}", b""))
    cloud.run(until=cloud.now + 120_000)
    assert all(f.done for f in futures)
    expected = sorted(f"n{i}-{j}" for i in range(3) for j in range(3))
    assert clients[0].get_children("/") == expected
    raw = service.system_store.table("fk-system-nodes").raw("/")
    assert raw["transactions"] == []  # all root appends drained


def test_coalescing_reduces_user_store_writes():
    def run_burst(coalesce):
        cloud, service = make_service(seed=85, leader_shards=2,
                                      leader_coalesce=coalesce)
        c = service.connect()
        c.create("/t", b"")
        c.create("/t/hot", b"")
        counts = {"writes": 0}
        original_write = service.user_store.write_node

        def spy(ctx, region, path, image):
            counts["writes"] += 1
            return (yield from original_write(ctx, region, path, image))

        service.user_store.write_node = spy
        futures = [c.set_data_async("/t/hot", f"v{i}".encode())
                   for i in range(12)]
        cloud.run(until=cloud.now + 120_000)
        assert all(f.done and f.event.ok for f in futures)
        versions = [f.wait().version for f in futures]
        assert versions == list(range(1, 13))  # every write committed, in order
        data, stat = c.get_data("/t/hot")
        assert data == b"v11" and stat.version == 12
        return counts["writes"]

    plain = run_burst(False)
    coalesced = run_burst(True)
    assert coalesced < plain  # superseded images were skipped
    assert plain == 12


def test_sharded_sequential_creates_and_ephemerals():
    """Sequence-suffixed and ephemeral nodes behave under sharding; session
    close cleans ephemerals across shards."""
    cloud, service = make_service(seed=86, leader_shards=4)
    a, b = _two_cross_shard_subtrees(4)
    owner = service.connect()
    observer = service.connect()
    owner.create(f"/{a}", b"")
    owner.create(f"/{b}", b"")
    p1 = owner.create(f"/{a}/seq-", b"", sequence=True)
    p2 = owner.create(f"/{a}/seq-", b"", sequence=True)
    assert p1 == f"/{a}/seq-0000000000"
    assert p2 == f"/{a}/seq-0000000001"
    owner.create(f"/{a}/eph", b"", ephemeral=True)
    owner.create(f"/{b}/eph", b"", ephemeral=True)
    owner.close()
    cloud.run(until=cloud.now + 60_000)
    assert observer.exists(f"/{a}/eph") is None
    assert observer.exists(f"/{b}/eph") is None
    assert observer.get_children(f"/{a}") == ["seq-0000000000", "seq-0000000001"]
