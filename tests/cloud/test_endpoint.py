"""The fault prelude and postlude every storage endpoint shares.

Each endpoint — the key-value store, the object store, the in-memory
cache and the user store's ``mem`` backend — is armed with an injector
that draws one fault kind on every op, through the real schedule, and
one read and one mutator meet it:

* a throttle or a dropped connection costs no latency, no charge and no
  mutation;
* a timeout burns ``FAULT_TIMEOUT_MS`` and then leaves nothing applied;
* a partial write applies the mutation and then loses the reply;
* a read cannot partial-write: it degrades to the dropped connection.

A read from another region pays one penalty rule at every store.
"""

import pytest

from repro.cloud import Cloud
from repro.cloud.context import OpContext
from repro.cloud.errors import ConnectionReset, StorageTimeout, ThrottlingError
from repro.cloud.faults import (DEFAULT_WEIGHTS, FAULT_KINDS, FAULT_TIMEOUT_MS,
                                 FaultInjector)
from repro.faaskeeper.userstore import MemBackend


def _kvstore(cloud, ctx):
    kv = cloud.kv("dynamodb:test")
    kv.create_table("t")
    return (kv, kv.put_item(ctx, "t", "k", {"v": 1}),
            lambda: kv.get_item(ctx, "t", "k"),
            lambda: kv.put_item(ctx, "t", "k", {"v": 2}), {"v": 2})


def _objectstore(cloud, ctx):
    s3 = cloud.objectstore("s3")
    s3.create_bucket("b")
    return (s3, s3.put_object(ctx, "b", "k", b"1", {}),
            lambda: s3.get_object(ctx, "b", "k"),
            lambda: s3.put_object(ctx, "b", "k", b"2", {}), (b"2", {}))


def _cache(cloud, ctx):
    redis = cloud.cache("redis")
    return (redis, redis.set(ctx, "k", 1), lambda: redis.get(ctx, "k"),
            lambda: redis.set(ctx, "k", 2), 2)


def _mem(cloud, ctx):
    mem = MemBackend(cloud, ["us-east-1"])
    return (mem, mem.write_node(ctx, "us-east-1", "/k", {"data": b"1"}),
            lambda: mem.read_node(ctx, "us-east-1", "/k"),
            lambda: mem.write_node(ctx, "us-east-1", "/k", {"data": b"2"}),
            {"data": b"2"})


class _RollsInto:
    """An RNG whose every roll lands mid-band of ``kind`` in the default
    fault mix, so the real schedule draws ``kind`` on every op."""

    def __init__(self, kind):
        below = FAULT_KINDS[:FAULT_KINDS.index(kind)]
        self.roll = (sum(DEFAULT_WEIGHTS[k] for k in below)
                     + DEFAULT_WEIGHTS[kind] / 2)

    def random(self):
        return self.roll


ENDPOINTS = {"kvstore": _kvstore, "objectstore": _objectstore,
             "cache": _cache, "mem": _mem}

#: The error each kind raises at the caller.
RAISES = {"throttle": ThrottlingError, "timeout": StorageTimeout,
          "conn_reset": ConnectionReset, "partial_write": ConnectionReset}


@pytest.mark.parametrize("side", ["read", "mutator"])
@pytest.mark.parametrize("kind", FAULT_KINDS)
@pytest.mark.parametrize("endpoint", ENDPOINTS)
def test_a_fault_fails_the_round_trip_the_same_way_at_every_endpoint(
        cloud, ctx, endpoint, kind, side):
    store, seed, read, mutate, written = ENDPOINTS[endpoint](cloud, ctx)
    cloud.run_process(seed)
    # Rate 1 and every roll in ``kind``'s band: every op draws it.
    store.faults = FaultInjector(_RollsInto(kind), rate=1.0)
    t0, usd0 = cloud.now, cloud.meter.total
    drawn = "conn_reset" if (kind, side) == ("partial_write", "read") else kind

    with pytest.raises(RAISES[drawn]):
        cloud.run_process(read() if side == "read" else mutate())

    assert store.faults.injected == {k: int(k == drawn) for k in FAULT_KINDS}
    if drawn != "partial_write":
        assert cloud.now == t0 + (FAULT_TIMEOUT_MS if drawn == "timeout" else 0.0)
        assert cloud.meter.total == usd0
    else:
        assert cloud.now > t0
    store.faults = None
    assert (cloud.run_process(read()) == written) == (drawn == "partial_write")


def _read_64kb_ms(endpoint, region):
    """Virtual ms one read of a stored 64 kB value takes, called from
    ``region`` (None: the store's own)."""
    cloud = Cloud.aws(seed=1234)
    local, caller, big = OpContext(), OpContext(region=region), b"x" * 65536
    if endpoint == "kvstore":
        store = cloud.kv("dynamodb:test")
        store.create_table("t")
        cloud.run_process(store.put_item(local, "t", "k", {"v": big}))
        read = store.get_item(caller, "t", "k")
    elif endpoint == "objectstore":
        store = cloud.objectstore("s3")
        store.create_bucket("b")
        cloud.run_process(store.put_object(local, "b", "k", big, {}))
        read = store.get_object(caller, "b", "k")
    else:
        store = cloud.cache("redis")
        cloud.run_process(store.set(local, "k", big))
        read = store.get(caller, "k")
    t0 = cloud.now
    cloud.run_process(read)
    return cloud.now - t0


def test_a_remote_read_pays_the_same_transfer_term_at_every_store():
    """One inter-region rule: the fixed penalty plus ``inter_region_per_kb_ms``
    per kB moved, whichever store holds the 64 kB (``mem`` has a fixed
    latency and no region)."""
    profile = Cloud.aws().profile
    for endpoint in ("kvstore", "objectstore", "cache"):
        penalty = _read_64kb_ms(endpoint, "eu-central-1") - _read_64kb_ms(endpoint, None)
        assert penalty - profile.inter_region_extra_ms == pytest.approx(
            profile.inter_region_per_kb_ms * 64, rel=0.01), endpoint
