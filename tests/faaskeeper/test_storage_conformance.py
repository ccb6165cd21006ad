"""Shared conformance suite for every user-store backend.

Each kind in :data:`~repro.faaskeeper.userstore.BACKENDS` must pass the
same CRUD, metadata-routing, entry-sizing, multi-region and
inspection-hook semantics.  ``mem`` is the reference implementation the
others are diffed against.
"""

import pytest

from repro.cloud import Cloud
from repro.cloud.context import OpContext
from repro.cloud.sanitize import SanitizerError
from repro.faaskeeper import FaaSKeeperConfig
from repro.faaskeeper.layout import USER_BUCKET, USER_TABLE
from repro.faaskeeper.userstore import BACKENDS, MemBackend, make_user_store

TWO_REGIONS = ["us-east-1", "eu-west-1"]
KINDS = sorted(BACKENDS)


def make_store(kind, regions=TWO_REGIONS, seed=7, **config_kwargs):
    cloud = Cloud.aws(seed=seed)
    config = FaaSKeeperConfig(user_store=kind, regions=list(regions),
                              **config_kwargs)
    return cloud, make_user_store(cloud, config)


def image(data=b"payload", **meta):
    base = {"version": 1, "cversion": 0, "children": [], "data": data}
    base.update(meta)
    return base


# ------------------------------------------------------------------ backends
def test_registry_covers_the_papers_backends_plus_mem():
    assert KINDS == ["dynamodb", "hybrid", "mem", "redis", "s3"]


def assert_rejected(*specs):
    """``user_store`` names a kind; anything else is rejected up front,
    with the kinds there are."""
    for spec in specs:
        with pytest.raises(ValueError, match="known: dynamodb, hybrid, mem"):
            FaaSKeeperConfig(user_store=spec)


def test_unknown_scheme_lists_registered_ones():
    assert_rejected("cassandra", "dynamo")


def test_uri_host_or_path_parts_are_rejected():
    assert_rejected("s3://bucket/prefix")


def test_unknown_uri_params_are_rejected():
    assert_rejected("s3://?nope=1", "hybrid://?threshold_kb=8")


def test_registering_a_backend_is_all_it_takes_to_deploy_it(monkeypatch):
    """``BACKENDS`` is the one list: the config validates against it, not
    against a second list of built-ins."""
    with pytest.raises(ValueError, match="unknown user store"):
        FaaSKeeperConfig(user_store="toy")
    toy = type("ToyBackend", (MemBackend,), {})
    monkeypatch.setitem(BACKENDS, "toy", toy)
    assert type(make_store("toy")[1]) is toy


# --------------------------------------------------------------------- CRUD
@pytest.mark.parametrize("kind", KINDS)
def test_crud_roundtrip(kind):
    cloud, store = make_store(kind)
    ctx = OpContext(region=TWO_REGIONS[0])

    def flow():
        yield from store.write_node(ctx, TWO_REGIONS[0], "/n", image())
        first = yield from store.read_node(ctx, TWO_REGIONS[0], "/n")
        yield from store.write_node(
            ctx, TWO_REGIONS[0], "/n", image(data=b"updated", version=2))
        second = yield from store.read_node(ctx, TWO_REGIONS[0], "/n")
        yield from store.delete_node(ctx, TWO_REGIONS[0], "/n")
        third = yield from store.read_node(ctx, TWO_REGIONS[0], "/n")
        return first, second, third

    first, second, third = cloud.run_process(flow())
    assert first == image()
    assert second == image(data=b"updated", version=2)
    assert third is None
    assert store.peek(TWO_REGIONS[0], "/n") is None


@pytest.mark.parametrize("kind", KINDS)
def test_read_returns_a_copy(kind, monkeypatch):
    """A read hands out the stored image, frozen (Redis alone returns a
    copy: a GET deserializes).  Mutating it breaks the image discipline;
    with the sanitizer armed the next op on the node raises."""
    monkeypatch.setenv("FK_SANITIZE", "1")  # read when the stores are built
    cloud, store = make_store(kind)
    ctx = OpContext(region=TWO_REGIONS[0])
    cloud.run_process(store.write_node(ctx, TWO_REGIONS[0], "/n",
                                       image(children=["a"])))
    got = cloud.run_process(store.read_node(ctx, TWO_REGIONS[0], "/n"))
    got["children"].append("intruder")
    reread = store.read_node(ctx, TWO_REGIONS[0], "/n")
    if kind == "redis":
        assert cloud.run_process(reread)["children"] == ["a"]
    else:
        with pytest.raises(SanitizerError, match="mutated in place"):
            cloud.run_process(reread)


@pytest.mark.parametrize("kind", KINDS)
def test_write_stores_a_copy(kind):
    cloud, store = make_store(kind)
    ctx = OpContext(region=TWO_REGIONS[0])
    passed_in = image(children=["a"], acl={"read": ["alice"]})

    def flow():
        yield from store.write_node(ctx, TWO_REGIONS[0], "/n", passed_in)
        passed_in["children"].append("intruder")
        passed_in["acl"]["read"].append("mallory")
        return (yield from store.read_node(ctx, TWO_REGIONS[0], "/n"))

    got = cloud.run_process(flow())
    assert got["children"] == ["a"]
    assert got["acl"] == {"read": ["alice"]}


# ----------------------------------------------------------------- metadata
@pytest.mark.parametrize("kind", KINDS)
def test_update_metadata_preserves_data(kind):
    """The leader's parent-node path: child list / cversion change while
    the node's data must survive untouched (covers the RedisBackend
    read-merge-write and the hybrid KV-only routing alike)."""
    cloud, store = make_store(kind)
    ctx = OpContext(region=TWO_REGIONS[0])

    def flow():
        yield from store.write_node(ctx, TWO_REGIONS[0], "/p",
                                    image(data=b"keep-me"))
        meta = {"version": 1, "cversion": 3, "children": ["kid"],
                "data": b"STALE-MUST-BE-IGNORED"}
        yield from store.update_metadata(ctx, TWO_REGIONS[0], "/p", meta)
        return (yield from store.read_node(ctx, TWO_REGIONS[0], "/p"))

    after = cloud.run_process(flow())
    assert after["data"] == b"keep-me"
    assert after["cversion"] == 3
    assert after["children"] == ["kid"]


@pytest.mark.parametrize("kind", KINDS)
def test_update_metadata_in_every_region(kind):
    cloud, store = make_store(kind)
    for region in TWO_REGIONS:
        ctx = OpContext(region=region)

        def flow(region=region, ctx=ctx):
            yield from store.write_node(ctx, region, "/r", image())
            yield from store.update_metadata(
                ctx, region, "/r", {"version": 1, "cversion": 9,
                                    "children": []})
            return (yield from store.read_node(ctx, region, "/r"))

        after = cloud.run_process(flow())
        assert after["data"] == b"payload", f"data lost in {region}"
        assert after["cversion"] == 9, f"metadata not routed in {region}"


# -------------------------------------------------------------- entry sizing
@pytest.mark.parametrize("kind", KINDS)
def test_image_size_accounting_is_backend_independent(kind):
    _cloud, store = make_store(kind)
    small = store.image_size_kb(image(data=b""))
    large = store.image_size_kb(image(data=b"x" * 10_240))
    assert large > small
    assert large - small == pytest.approx(10.0, rel=0.05)


# --------------------------------------------------------------- multi-region
@pytest.mark.parametrize("kind", KINDS)
def test_regions_are_isolated(kind):
    cloud, store = make_store(kind)
    r0, r1 = TWO_REGIONS
    ctx = OpContext(region=r0)

    def flow():
        yield from store.write_node(ctx, r0, "/only-r0", image())
        in_r0 = yield from store.read_node(ctx, r0, "/only-r0")
        in_r1 = yield from store.read_node(ctx, r1, "/only-r0")
        return in_r0, in_r1

    in_r0, in_r1 = cloud.run_process(flow())
    assert in_r0 == image()
    assert in_r1 is None, f"{kind}: write to {r0} leaked into {r1}"


@pytest.mark.parametrize("kind", KINDS)
def test_wipe_region_destroys_only_that_replica(kind):
    cloud, store = make_store(kind)
    r0, r1 = TWO_REGIONS

    def flow():
        for region in (r0, r1):
            yield from store.write_node(
                OpContext(region=region), region, "/n", image())
        return None

    cloud.run_process(flow())
    store.wipe_region(r0)
    assert store.peek(r0, "/n") is None
    assert store.peek(r1, "/n") is not None, \
        f"{kind}: wiping {r0} destroyed {r1} too"


# ---------------------------------------------------------- inspection hooks
@pytest.mark.parametrize("kind", KINDS)
def test_peek_matches_read_without_billing(kind):
    cloud, store = make_store(kind)
    region = TWO_REGIONS[0]
    ctx = OpContext(region=region)
    cloud.run_process(store.write_node(ctx, region, "/n", image()))
    t0 = cloud.now
    peeked = store.peek(region, "/n")
    assert cloud.now == t0  # zero latency
    read = cloud.run_process(store.read_node(ctx, region, "/n"))
    assert peeked == read


@pytest.mark.parametrize("kind", KINDS)
def test_fault_points_are_armable(kind):
    _cloud, store = make_store(kind)
    points = store.fault_points()
    assert points, f"{kind}: no fault points to arm"
    for point in points:
        assert hasattr(point, "faults")
        assert getattr(point, "service_label")
        assert getattr(point, "region")


# ------------------------------------------------------------ hybrid routing
def test_hybrid_routes_by_threshold_across_regions():
    """Section 4.2's split: up to ``THRESHOLD_KB`` (4 kB) in the key-value
    item, larger data spilled to the object store."""
    cloud, store = make_store("hybrid")
    for region in TWO_REGIONS:
        ctx = OpContext(region=region)
        small = image(data=b"x" * 1024)
        big = image(data=b"x" * 8192)

        def flow(region=region, ctx=ctx, small=small, big=big):
            yield from store.write_node(ctx, region, "/small", small)
            yield from store.write_node(ctx, region, "/big", big)
            return None

        cloud.run_process(flow())
        kv_small = cloud.kv("dynamodb:user", region=region).table(
            USER_TABLE).raw("/small")
        kv_big = cloud.kv("dynamodb:user", region=region).table(
            USER_TABLE).raw("/big")
        s3 = cloud.objectstore("s3", region=region)
        assert kv_small["data"] == b"x" * 1024
        assert s3.raw(USER_BUCKET, "/small") is None
        assert kv_big["data_in_s3"] is True and "data" not in kv_big
        assert s3.raw(USER_BUCKET, "/big") == b"x" * 8192


def test_hybrid_metadata_update_leaves_spilled_data_in_s3():
    """A parent-update on a large node must stay KV-only (the layout's
    cheap-parent-update advantage) and keep routing intact."""
    cloud, store = make_store("hybrid")
    region = TWO_REGIONS[0]
    ctx = OpContext(region=region)
    big = image(data=b"x" * 8192)
    cloud.run_process(store.write_node(ctx, region, "/big", big))

    def s3_writes():
        return sum(line.count for line in cloud.meter.lines()
                   if (line.service, line.operation) == ("s3", "obj_write"))

    writes_before = s3_writes()
    assert writes_before == 1
    cloud.run_process(store.update_metadata(
        ctx, region, "/big", {"version": 2, "cversion": 1, "children": []}))
    assert s3_writes() == writes_before  # data was not rewritten
    after = cloud.run_process(store.read_node(ctx, region, "/big"))
    assert after["data"] == b"x" * 8192
    assert after["version"] == 2
    kv_item = cloud.kv("dynamodb:user", region=region).table(
        USER_TABLE).raw("/big")
    assert kv_item["data_in_s3"] is True and "data" not in kv_item
