"""Shared conformance suite for every registered user-store backend.

Registration is the contract: each scheme in ``registered_schemes()`` —
including third-party backends added later — must pass the same CRUD,
metadata-routing, entry-sizing, multi-region and inspection-hook
semantics.  ``mem://`` is the reference implementation the others are
diffed against.
"""

import pytest

from repro.cloud import Cloud
from repro.cloud.context import OpContext
from repro.faaskeeper import FaaSKeeperConfig
from repro.faaskeeper.layout import USER_BUCKET, USER_TABLE
from repro.faaskeeper.userstore import (
    BACKEND_REGISTRY,
    HybridBackend,
    MemBackend,
    UserStore,
    backend_for,
    make_user_store,
    parse_store_uri,
    register_backend,
    registered_schemes,
)

TWO_REGIONS = ["us-east-1", "eu-west-1"]
SCHEMES = registered_schemes()


def make_store(scheme, regions=TWO_REGIONS, seed=7, **config_kwargs):
    cloud = Cloud.aws(seed=seed)
    config = FaaSKeeperConfig(user_store=scheme, regions=list(regions),
                              **config_kwargs)
    return cloud, make_user_store(cloud, config)


def image(data=b"payload", **meta):
    base = {"version": 1, "cversion": 0, "children": [], "data": data}
    base.update(meta)
    return base


# ------------------------------------------------------------------ registry
def test_registry_covers_the_papers_backends_plus_mem():
    assert SCHEMES == ["dynamodb", "hybrid", "mem", "redis", "s3"]


def test_bare_kind_and_uri_resolve_to_the_same_backend():
    assert parse_store_uri("s3") == ("s3", {})
    assert parse_store_uri("hybrid://?threshold_kb=8") == \
        ("hybrid", {"threshold_kb": "8"})
    assert backend_for("dynamo") is backend_for("dynamodb")


def test_unknown_scheme_lists_registered_ones():
    with pytest.raises(ValueError, match="registered"):
        backend_for("cassandra")


def test_uri_host_or_path_parts_are_rejected():
    with pytest.raises(ValueError, match="host/path"):
        parse_store_uri("s3://bucket/prefix")


def test_unknown_uri_params_are_rejected():
    cloud = Cloud.aws(seed=1)
    config = FaaSKeeperConfig(user_store="s3")
    config.user_store = "s3://?nope=1"
    with pytest.raises(ValueError, match="no parameters"):
        make_user_store(cloud, config)


def test_hybrid_uri_threshold_param_overrides_config():
    assert make_store("hybrid")[1].threshold_kb == 4.0
    cloud, store = make_store("hybrid://?threshold_kb=8.0")
    assert isinstance(store, HybridBackend)
    assert store.threshold_kb == 8.0


def test_double_registration_of_a_scheme_is_an_error():
    with pytest.raises(ValueError, match="already registered"):
        register_backend("mem")(type("Imposter", (UserStore,), {}))
    assert BACKEND_REGISTRY["mem"] is MemBackend  # registry unharmed


def test_registering_a_backend_is_all_it_takes_to_deploy_it():
    """``register_backend`` is the extension seam: the config validates
    against the registry, not against a list of built-ins."""
    with pytest.raises(ValueError, match="unknown user store"):
        FaaSKeeperConfig(user_store="toy")
    toy = register_backend("toy")(type("ToyBackend", (MemBackend,), {}))
    try:
        assert type(make_store("toy")[1]) is toy
    finally:
        del BACKEND_REGISTRY["toy"]


# --------------------------------------------------------------------- CRUD
@pytest.mark.parametrize("scheme", SCHEMES)
def test_crud_roundtrip(scheme):
    cloud, store = make_store(scheme)
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


@pytest.mark.parametrize("scheme", SCHEMES)
def test_read_returns_a_copy(scheme):
    cloud, store = make_store(scheme)
    ctx = OpContext(region=TWO_REGIONS[0])

    def flow():
        yield from store.write_node(ctx, TWO_REGIONS[0], "/n",
                                    image(children=["a"]))
        got = yield from store.read_node(ctx, TWO_REGIONS[0], "/n")
        got["children"].append("intruder")
        return (yield from store.read_node(ctx, TWO_REGIONS[0], "/n"))

    assert cloud.run_process(flow())["children"] == ["a"]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_write_stores_a_copy(scheme):
    cloud, store = make_store(scheme)
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
@pytest.mark.parametrize("scheme", SCHEMES)
def test_update_metadata_preserves_data(scheme):
    """The leader's parent-node path: child list / cversion change while
    the node's data must survive untouched (covers the RedisBackend
    read-merge-write and the hybrid KV-only routing alike)."""
    cloud, store = make_store(scheme)
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


@pytest.mark.parametrize("scheme", SCHEMES)
def test_update_metadata_in_every_region(scheme):
    cloud, store = make_store(scheme)
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
@pytest.mark.parametrize("scheme", SCHEMES)
def test_image_size_accounting_is_backend_independent(scheme):
    _cloud, store = make_store(scheme)
    small = store.image_size_kb(image(data=b""))
    large = store.image_size_kb(image(data=b"x" * 10_240))
    assert large > small
    assert large - small == pytest.approx(10.0, rel=0.05)


# --------------------------------------------------------------- multi-region
@pytest.mark.parametrize("scheme", SCHEMES)
def test_regions_are_isolated(scheme):
    cloud, store = make_store(scheme)
    r0, r1 = TWO_REGIONS
    ctx = OpContext(region=r0)

    def flow():
        yield from store.write_node(ctx, r0, "/only-r0", image())
        in_r0 = yield from store.read_node(ctx, r0, "/only-r0")
        in_r1 = yield from store.read_node(ctx, r1, "/only-r0")
        return in_r0, in_r1

    in_r0, in_r1 = cloud.run_process(flow())
    assert in_r0 == image()
    assert in_r1 is None, f"{scheme}: write to {r0} leaked into {r1}"


@pytest.mark.parametrize("scheme", SCHEMES)
def test_wipe_region_destroys_only_that_replica(scheme):
    cloud, store = make_store(scheme)
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
        f"{scheme}: wiping {r0} destroyed {r1} too"


# ---------------------------------------------------------- inspection hooks
@pytest.mark.parametrize("scheme", SCHEMES)
def test_peek_matches_read_without_billing(scheme):
    cloud, store = make_store(scheme)
    region = TWO_REGIONS[0]
    ctx = OpContext(region=region)
    cloud.run_process(store.write_node(ctx, region, "/n", image()))
    t0 = cloud.now
    peeked = store.peek(region, "/n")
    assert cloud.now == t0  # zero latency
    read = cloud.run_process(store.read_node(ctx, region, "/n"))
    assert peeked == read


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fault_points_are_armable(scheme):
    _cloud, store = make_store(scheme)
    points = store.fault_points()
    assert points, f"{scheme}: no fault points to arm"
    for point in points:
        assert hasattr(point, "faults")
        assert getattr(point, "service_label")
        assert getattr(point, "region")


# ------------------------------------------------------------ hybrid routing
def test_hybrid_routes_by_threshold_across_regions():
    cloud, store = make_store("hybrid://?threshold_kb=2.0")
    for region in TWO_REGIONS:
        ctx = OpContext(region=region)
        small = image(data=b"x" * 1024)
        big = image(data=b"x" * 4096)

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
        assert s3.raw(USER_BUCKET, "/big") == b"x" * 4096


def test_hybrid_metadata_update_leaves_spilled_data_in_s3():
    """A parent-update on a large node must stay KV-only (the layout's
    cheap-parent-update advantage) and keep routing intact."""
    cloud, store = make_store("hybrid://?threshold_kb=2.0")
    region = TWO_REGIONS[0]
    ctx = OpContext(region=region)
    big = image(data=b"x" * 4096)
    cloud.run_process(store.write_node(ctx, region, "/big", big))
    s3 = cloud.objectstore("s3", region=region)
    writes_before = s3._write_count if hasattr(s3, "_write_count") else None
    cloud.run_process(store.update_metadata(
        ctx, region, "/big", {"version": 2, "cversion": 1, "children": []}))
    after = cloud.run_process(store.read_node(ctx, region, "/big"))
    assert after["data"] == b"x" * 4096
    assert after["version"] == 2
    kv_item = cloud.kv("dynamodb:user", region=region).table(
        USER_TABLE).raw("/big")
    assert kv_item["data_in_s3"] is True and "data" not in kv_item
    if writes_before is not None:
        assert s3._write_count == writes_before  # data was not rewritten
