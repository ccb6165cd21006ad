"""Unit tests for the simulated in-memory cache."""


def test_set_get_delete_roundtrip(cloud, ctx):
    cache = cloud.cache()

    def flow():
        yield from cache.set(ctx, "k", {"v": 1})
        first = yield from cache.get(ctx, "k")
        yield from cache.delete(ctx, "k")
        return first, (yield from cache.get(ctx, "k"))

    assert cloud.run_process(flow()) == ({"v": 1}, None)


def test_values_are_isolated_both_ways(cloud, ctx):
    """The cache keeps its own image: neither the value a caller passed in
    nor one a caller got back aliases it."""
    cache = cloud.cache()
    passed_in = {"children": ["a"], "acl": {"read": ["alice"]}, "data": b"x"}

    def flow():
        yield from cache.set(ctx, "k", passed_in)
        passed_in["children"].append("intruder")
        returned = yield from cache.get(ctx, "k")
        returned["acl"]["read"].append("mallory")
        return (yield from cache.get(ctx, "k"))

    assert cloud.run_process(flow()) == {
        "children": ["a"], "acl": {"read": ["alice"]}, "data": b"x"}
