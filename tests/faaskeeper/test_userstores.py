"""User-store backends: S3 / DynamoDB / hybrid / Redis (Section 4.2)."""

import pytest

from repro.cloud.context import OpContext
from repro.faaskeeper.layout import USER_BUCKET, USER_TABLE
from repro.faaskeeper.userstore import BACKENDS
from .conftest import make_service

TWO_REGIONS = ["us-east-1", "eu-west-1"]


@pytest.mark.parametrize("kind", ["s3", "dynamodb", "hybrid", "redis"])
def test_crud_roundtrip_on_every_backend(kind):
    cloud, service = make_service(user_store=kind)
    c = service.connect()
    c.create("/a", b"payload")
    data, stat = c.get_data("/a")
    assert data == b"payload"
    c.set_data("/a", b"updated")
    data, _ = c.get_data("/a")
    assert data == b"updated"
    c.create("/a/b", b"child")
    assert c.get_children("/a") == ["b"]
    c.delete("/a/b")
    c.delete("/a")
    assert c.exists("/a") is None


@pytest.mark.parametrize("cache", [0, 64], ids=["uncached", "cached"])
@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_what_a_read_hands_the_user_is_its_own(kind, cache):
    """Reads return the user store's frozen images uncopied, so what
    ``get_acl()``, ``get_children()`` and ``get_data()`` hand the user
    must not alias them: mutating it leaves a fresh read unchanged."""
    cloud, service = make_service(user_store=kind, client_cache_entries=cache)
    c = service.connect()
    acl = {perm: ["world"] for perm in ("read", "write", "delete", "create")}
    c.create("/a", b"payload", acl=acl)
    c.create("/a/b", b"")
    for _ in range(2):  # a storage read, then a cache hit where cached
        got = c.get_acl("/a")
        got["read"].append("mallory")
        got["admin"] = ["mallory"]
        c.get_children("/a").append("intruder")
        data, stat = c.get_data("/a")
        assert type(data) is bytes and isinstance(stat, tuple)  # immutable
    assert c.get_acl("/a") == acl
    assert c.get_children("/a") == ["b"]
    assert c.get_data("/a")[0] == b"payload"


def test_hybrid_small_node_stays_in_kv():
    cloud, service = make_service(user_store="hybrid")
    c = service.connect()
    c.create("/small", b"x" * 1024)  # 1 kB <= 4 kB threshold
    kv = cloud.kv("dynamodb:user")
    item = kv.table(USER_TABLE).raw("/small")
    assert item is not None and item["data"] == b"x" * 1024
    s3 = cloud.objectstore("s3")
    assert s3.raw(USER_BUCKET, "/small") is None


def test_hybrid_large_node_spills_data_to_s3():
    cloud, service = make_service(user_store="hybrid")
    c = service.connect()
    payload = b"x" * (64 * 1024)
    c.create("/large", payload)
    kv = cloud.kv("dynamodb:user")
    item = kv.table(USER_TABLE).raw("/large")
    assert item["data_in_s3"] is True
    assert "data" not in item
    s3 = cloud.objectstore("s3")
    assert s3.raw(USER_BUCKET, "/large") == payload
    # the client reassembles transparently
    data, stat = c.get_data("/large")
    assert data == payload
    assert stat.data_length == len(payload)


def test_hybrid_delete_cleans_both_stores():
    cloud, service = make_service(user_store="hybrid")
    c = service.connect()
    c.create("/large", b"x" * (64 * 1024))
    c.delete("/large")
    cloud.run(until=cloud.now + 3000)
    assert cloud.kv("dynamodb:user").table(USER_TABLE).raw("/large") is None
    assert cloud.objectstore("s3").raw(USER_BUCKET, "/large") is None


def test_read_latency_ranking_matches_figure8():
    """Figure 8: Redis < DynamoDB < S3 for small-node reads."""
    medians = {}
    for kind in ("redis", "dynamodb", "s3"):
        cloud, service = make_service(user_store=kind, seed=31)
        c = service.connect()
        c.create("/n", b"x" * 1024)
        times = []
        for _ in range(60):
            t0 = cloud.now
            c.get_data("/n")
            times.append(cloud.now - t0)
        times.sort()
        medians[kind] = times[len(times) // 2]
    assert medians["redis"] < medians["dynamodb"] < medians["s3"]
    assert medians["redis"] < 2.0          # in-memory ~ZooKeeper level
    assert 3.0 < medians["dynamodb"] < 9.0  # ~5 ms
    assert 9.0 < medians["s3"] < 20.0       # ~12 ms


def test_hybrid_read_cheaper_than_s3_for_small_nodes():
    """Section 4.2: hybrid reads a 1 kB node from DynamoDB: 0.25e-6 vs S3
    0.4e-6 per read."""
    costs = {}
    for kind in ("hybrid", "s3"):
        cloud, service = make_service(user_store=kind, seed=5)
        c = service.connect()
        c.create("/n", b"x" * 1024)
        before = cloud.meter.by_service()
        for _ in range(100):
            c.get_data("/n")
        delta = cloud.meter.delta(before)
        costs[kind] = sum(v for k, v in delta.items()
                          if k in ("s3", "dynamodb:user"))
    assert costs["hybrid"] < costs["s3"]


def test_write_latency_s3_grows_faster_than_dynamodb_small():
    """Figure 11: replacing S3 with DynamoDB cuts small-node write time."""
    medians = {}
    for kind in ("dynamodb", "s3"):
        cloud, service = make_service(user_store=kind, seed=77)
        c = service.connect()
        c.create("/n", b"")
        times = []
        for i in range(40):
            t0 = cloud.now
            c.set_data("/n", b"y" * 512)
            times.append(cloud.now - t0)
        times.sort()
        medians[kind] = times[len(times) // 2]
    assert medians["dynamodb"] < medians["s3"]


# ------------------------------------------------------- backend routing
@pytest.mark.parametrize("region", TWO_REGIONS)
def test_hybrid_delete_small_node_skips_s3(region):
    """Hybrid delete routing: a small node never touched S3, so deleting
    it must issue no object-store delete — only the key-value item goes."""
    cloud, service = make_service(user_store="hybrid", regions=TWO_REGIONS)
    store = service.user_store
    ctx = OpContext(region=region)
    image = {"path": "/small", "data": b"x" * 512, "version": 0,
             "cversion": 0, "children": [], "epoch": []}
    cloud.run_process(store.write_node(ctx, region, "/small", image))
    s3 = cloud.objectstore("s3", region=region)
    s3_cost_before = cloud.meter.by_service().get("s3", 0.0)
    cloud.run_process(store.delete_node(ctx, region, "/small"))
    kv = cloud.kv("dynamodb:user", region=region)
    assert kv.table(USER_TABLE).raw("/small") is None
    assert s3.raw(USER_BUCKET, "/small") is None
    # no object-store request was issued at all
    assert cloud.meter.by_service().get("s3", 0.0) == s3_cost_before


@pytest.mark.parametrize("region", TWO_REGIONS)
def test_hybrid_metadata_update_keeps_spilled_data_in_s3(region):
    """Hybrid metadata routing: a parent child-list update on a large node
    rewrites only the key-value item; the S3 object is left untouched and
    reads still reassemble data + fresh metadata."""
    cloud, service = make_service(user_store="hybrid", regions=TWO_REGIONS)
    store = service.user_store
    ctx = OpContext(region=region)
    payload = b"x" * (64 * 1024)
    image = {"path": "/big", "data": payload, "version": 1,
             "cversion": 0, "children": [], "epoch": []}
    cloud.run_process(store.write_node(ctx, region, "/big", image))
    s3_cost = cloud.meter.by_service().get("s3", 0.0)
    meta = {"path": "/big", "version": 1, "cversion": 3,
            "children": ["kid"], "epoch": []}
    cloud.run_process(store.update_metadata(ctx, region, "/big", meta))
    # no second object upload: the spilled data was not rewritten
    assert cloud.meter.by_service().get("s3", 0.0) == s3_cost
    read = cloud.run_process(store.read_node(ctx, region, "/big"))
    assert read["data"] == payload
    assert read["children"] == ["kid"] and read["cversion"] == 3
    assert "data_in_s3" not in read


@pytest.mark.parametrize("region", TWO_REGIONS)
def test_hybrid_metadata_update_small_node_stays_inline(region):
    cloud, service = make_service(user_store="hybrid", regions=TWO_REGIONS)
    store = service.user_store
    ctx = OpContext(region=region)
    image = {"path": "/s", "data": b"tiny", "version": 1,
             "cversion": 0, "children": [], "epoch": []}
    cloud.run_process(store.write_node(ctx, region, "/s", image))
    meta = {"path": "/s", "version": 1, "cversion": 1,
            "children": ["c"], "epoch": []}
    cloud.run_process(store.update_metadata(ctx, region, "/s", meta))
    item = cloud.kv("dynamodb:user", region=region).table(USER_TABLE).raw("/s")
    assert item["data"] == b"tiny" and item["data_in_s3"] is False
    assert item["children"] == ["c"]


@pytest.mark.parametrize("region", TWO_REGIONS)
def test_redis_write_read_delete_roundtrip(region):
    """RedisBackend CRUD against each region's cache replica."""
    cloud, service = make_service(user_store="redis", regions=TWO_REGIONS)
    store = service.user_store
    ctx = OpContext(region=region)
    image = {"path": "/r", "data": b"cached", "version": 2,
             "cversion": 0, "children": [], "epoch": []}
    cloud.run_process(store.write_node(ctx, region, "/r", image))
    read = cloud.run_process(store.read_node(ctx, region, "/r"))
    assert read["data"] == b"cached" and read["version"] == 2
    # replicas are per-region: the other region has its own copy space
    other = [r for r in TWO_REGIONS if r != region][0]
    assert cloud.run_process(store.read_node(
        OpContext(region=other), other, "/r")) is None
    cloud.run_process(store.delete_node(ctx, region, "/r"))
    assert cloud.run_process(store.read_node(ctx, region, "/r")) is None


@pytest.mark.parametrize("kind", ["s3", "dynamodb", "hybrid", "redis"])
def test_crud_roundtrip_multi_region_deployment(kind):
    """Every backend serves both regions of a two-region deployment: the
    leader replicates into each replica and a second-region client reads
    its local one."""
    cloud, service = make_service(user_store=kind, regions=TWO_REGIONS)
    local = service.connect()
    remote = service.connect(region=TWO_REGIONS[1])
    local.create("/mr", b"both")
    assert remote.get_data("/mr")[0] == b"both"
    local.set_data("/mr", b"updated")
    cloud.run(until=cloud.now + 3000)
    assert remote.get_data("/mr")[0] == b"updated"
    local.delete("/mr")
    cloud.run(until=cloud.now + 3000)
    assert remote.exists("/mr") is None
