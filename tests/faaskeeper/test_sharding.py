"""Sharded leader pipeline invariants.

Covers the partition map, shards=1 deploying the paper's single-leader
topology, per-session ordering across shards (session fences, also
across a follower crash), cross-shard watch delivery with epoch
accounting, root (cross-shard parent) metadata convergence, and one
user-store write per committed image.
"""

import pytest

from repro.cloud import Cloud
from repro.cloud.queues import SharedSequence
from repro.faaskeeper import FaaSKeeperConfig
from repro.faaskeeper.distributor import GateBoard
from repro.faaskeeper.layout import shard_of_path, top_component
from .conftest import crash_next, make_service


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


# ------------------------------------------------------------ fence board
def test_the_shared_sequence_stamps_fences_per_session():
    txids = SharedSequence(fence_key="session")
    bodies = [{"session": s} for s in ("s1", "s1", "s2")]
    for body in bodies:
        txids.stamp(body)
    # sessions are independent of each other and of the txid count
    assert [body["fence"] for body in bodies] == [1, 2, 1]
    assert txids.value == 0


def test_fence_board_orders_waiters():
    cloud = Cloud.aws(seed=1)
    board = GateBoard(cloud.env)
    assert board.mark("s1") == 0
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


# ------------------------------------------------------------ shards=1 topology
def test_shards1_deploys_legacy_topology():
    _cloud, service = make_service(seed=78, leader_shards=1)
    assert [q.name for q in service.leader_queues] == ["fk-leader-q"]
    assert [f.spec.name for f in service.leader_fns] == ["fk-leader"]
    assert service.fence_board is None
    # the single leader's queue accepts its messages with no fence field
    captured = []
    queue = service.leader_queues[0]
    original = queue._enqueue

    def spy(msg):
        captured.append(msg.body)
        original(msg)

    queue._enqueue = spy
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
    """A session's writes land on different shards, yet shard leaders pass
    its fence in request order (a shard leader starts write k+1 only after
    write k finished on its own shard) and the client completes them in
    request order."""
    cloud, service = make_service(seed=81, leader_shards=4)
    a, b = _two_cross_shard_subtrees(4)
    c = service.connect()
    fences = []
    original = service.fence_board.advance

    def spy(session, fence):
        if session == c.session_id:
            fences.append(fence)
        original(session, fence)

    service.fence_board.advance = spy
    c.create(f"/{a}", b"")
    c.create(f"/{b}", b"")
    c.create(f"/{a}/x", b"")
    c.create(f"/{b}/x", b"")
    completion = []
    futures = []
    for i in range(10):
        path = f"/{a}/x" if i % 2 == 0 else f"/{b}/x"
        fut = c.set_data_async(path, f"v{i}".encode())
        fut.event.callbacks.append(lambda ev, i=i: completion.append(i))
        futures.append(fut)
    cloud.run(until=cloud.now + 120_000)
    assert all(f.done for f in futures)
    results = [f.wait() for f in futures]
    # the fence passed once per request (4 creates, 10 writes), in order
    assert fences == list(range(1, 15))
    assert completion == list(range(10))
    # txids were assigned from the shared sequence in request order
    txids = [r.txid for r in results]
    assert txids == sorted(txids)
    # both shards really were exercised
    shards_used = {service.shard_of(f"/{a}/x"), service.shard_of(f"/{b}/x")}
    assert len(shards_used) == 2
    assert c.get_data(f"/{a}/x")[0] == b"v8"
    assert c.get_data(f"/{b}/x")[0] == b"v9"


def test_per_session_completion_order_with_pipelined_burst():
    """A pipelined burst alternating between two shards completes its
    futures in request order, and a read issued last sees the final
    write."""
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


@pytest.mark.parametrize("distributor", [False, True],
                         ids=["inline", "distributor"])
def test_a_push_that_dies_before_its_send_holds_no_fence(distributor):
    """A follower crash before its leader push must not burn the session's
    fence: the redelivered push carries the fence the dead one never
    sent, so the shard leader is not left waiting for a fence nothing will
    apply — and neither the write nor another session's next write to that
    shard hangs."""
    cloud, service = make_service(seed=7, user_store="mem", leader_shards=2,
                                  distributor_enabled=distributor)
    c = service.connect()
    c.create("/a", b"")
    crash_next(service.follower_fn, "before:send#1")
    fut = c.set_data_async("/a", b"v1")
    cloud.run(until=cloud.now + 30_000)
    other = service.connect()
    fut2 = other.set_data_async("/a", b"v2")
    cloud.run(until=cloud.now + 30_000)
    assert service.follower_fn.failures == 1
    assert fut.done and fut.wait().version == 1
    assert fut2.done and fut2.wait().version == 2


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


def test_inline_shards_write_every_committed_image():
    """The sharded inline leader replicates like the single leader: a
    pipelined burst of 12 writes to one path costs exactly one user-store
    write per committed image, in commit order (only the distributor stage
    coalesces superseded writes)."""
    cloud, service = make_service(seed=85, leader_shards=2)
    c = service.connect()
    c.create("/t", b"")
    c.create("/t/hot", b"")
    writes = []
    original_write = service.user_store.write_node

    def spy(ctx, region, path, image):
        writes.append((path, image.get("version")))
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
    assert writes == [("/t/hot", v) for v in range(1, 13)]


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
