"""Unit tests for the simulated object store."""

import pytest

from repro.cloud import NoSuchBucket, NoSuchObject


def test_put_get_roundtrip(cloud, ctx):
    s3 = cloud.objectstore()
    s3.create_bucket("b")

    def flow():
        yield from s3.put_object(ctx, "b", "k", b"payload", {"ver": 1})
        return (yield from s3.get_object(ctx, "b", "k"))

    payload, meta = cloud.run_process(flow())
    assert payload == b"payload"
    assert meta == {"ver": 1}


def test_missing_object_raises(cloud, ctx):
    s3 = cloud.objectstore()
    s3.create_bucket("b")
    with pytest.raises(NoSuchObject):
        cloud.run_process(s3.get_object(ctx, "b", "nope"))


def test_missing_bucket_raises(cloud, ctx):
    s3 = cloud.objectstore()
    with pytest.raises(NoSuchBucket):
        cloud.run_process(s3.get_object(ctx, "nope", "k"))


def test_duplicate_bucket_rejected(cloud):
    s3 = cloud.objectstore()
    s3.create_bucket("b")
    with pytest.raises(ValueError):
        s3.create_bucket("b")


def test_overwrite_is_whole_object(cloud, ctx):
    s3 = cloud.objectstore()
    s3.create_bucket("b")

    def flow():
        yield from s3.put_object(ctx, "b", "k", b"version-1", {"m": 1})
        yield from s3.put_object(ctx, "b", "k", b"v2", {"m": 2})
        return (yield from s3.get_object(ctx, "b", "k"))

    payload, meta = cloud.run_process(flow())
    assert payload == b"v2"
    assert meta == {"m": 2}


def test_delete_object(cloud, ctx):
    s3 = cloud.objectstore()
    s3.create_bucket("b")

    def flow():
        yield from s3.put_object(ctx, "b", "k", b"x")
        yield from s3.delete_object(ctx, "b", "k")

    cloud.run_process(flow())
    assert s3.raw("b", "k") is None


def test_write_cost_flat_regardless_of_size(cloud, ctx):
    """Figure 4a: object storage bills per operation, not per kB."""
    s3 = cloud.objectstore()
    s3.create_bucket("b")
    cloud.run_process(s3.put_object(ctx, "b", "small", b"x"))
    small_cost = cloud.meter.total
    cloud.run_process(s3.put_object(ctx, "b", "big", b"x" * 500_000))
    big_cost = cloud.meter.total - small_cost
    assert small_cost == pytest.approx(5e-6)
    assert big_cost == pytest.approx(small_cost)


def test_write_12_5x_more_expensive_than_read(cloud, ctx):
    """Figure 4a annotation: S3 writes cost 12.5x reads."""
    prices = cloud.profile.prices
    assert prices.object_write_cost(1) / prices.object_read_cost(1) == pytest.approx(12.5)


def test_latency_grows_with_size(cloud):
    s3 = cloud.objectstore()
    s3.create_bucket("b")
    ctx = cloud.client_ctx()

    def timed_put(size):
        def flow():
            t0 = cloud.now
            yield from s3.put_object(ctx, "b", "k", b"x" * size)
            return cloud.now - t0
        return cloud.run_process(flow())

    small = min(timed_put(1024) for _ in range(5))
    large = min(timed_put(400 * 1024) for _ in range(5))
    assert large > small + 40  # ~0.2 ms/kB bandwidth term


def test_cross_region_penalty(cloud):
    s3 = cloud.objectstore()
    s3.create_bucket("b")
    local = cloud.client_ctx()
    remote = cloud.client_ctx(region="eu-west-1")
    cloud.run_process(s3.put_object(local, "b", "k", b"x" * 1024))

    def timed(c):
        def flow():
            t0 = cloud.now
            yield from s3.get_object(c, "b", "k")
            return cloud.now - t0
        return cloud.run_process(flow())

    assert min(timed(remote) for _ in range(5)) > min(timed(local) for _ in range(5)) + 100


def test_metadata_is_isolated_both_ways(cloud, ctx):
    """The store keeps its own metadata image: neither the dict a caller
    passed in nor one a caller got back aliases it."""
    s3 = cloud.objectstore()
    s3.create_bucket("b")
    passed_in = {"children": ["a"], "acl": {"read": ["alice"]}}

    def flow():
        yield from s3.put_object(ctx, "b", "k", b"x", passed_in)
        passed_in["children"].append("intruder")
        _, returned = yield from s3.get_object(ctx, "b", "k")
        returned["acl"]["read"].append("mallory")
        return (yield from s3.get_object(ctx, "b", "k"))

    _, meta = cloud.run_process(flow())
    assert meta == {"children": ["a"], "acl": {"read": ["alice"]}}
