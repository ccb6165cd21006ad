"""Client-library ordering semantics (Section 3.5)."""

import pytest

from repro.faaskeeper import NoNodeError
from .conftest import make_service

#: The session pipeline is blind to what is deployed behind the queue: the
#: ordering tests run on the paper's pipeline, the sharded one and the
#: distributor's.
SHAPES = {
    "default": {},
    "sharded": {"leader_shards": 4},
    "distributor": {"distributor_enabled": True, "ack_policy": "on_replicate"},
}
shapes = pytest.mark.parametrize("shape", SHAPES.values(), ids=list(SHAPES))


def _stamped(cloud, future):
    """Virtual instant ``future`` completes at (read after running)."""
    at = []
    future.event.callbacks.append(lambda _ev: at.append(cloud.now))
    return at


def test_read_after_write_sees_the_write():
    """The client completion queue: a read issued after a write (async)
    completes after it and observes its effect."""
    cloud, service = make_service(seed=500)
    c = service.connect()
    c.create("/a", b"old")
    write = c.set_data_async("/a", b"new")
    read = c.get_data_async("/a")
    cloud.run(until=cloud.now + 60_000)
    assert write.done and read.done
    data, stat = read.wait()
    assert data == b"new"
    assert stat.modified_tx >= write.wait().txid


def test_async_results_complete_in_request_order():
    cloud, service = make_service(seed=501)
    c = service.connect()
    c.create("/a", b"")
    completion_order = []

    futures = []
    for i in range(4):
        fut = c.set_data_async("/a", f"w{i}".encode())
        fut.event.callbacks.append(
            lambda ev, i=i: completion_order.append(("w", i)))
        futures.append(fut)
    read = c.get_data_async("/a")
    read.event.callbacks.append(lambda ev: completion_order.append(("r", 0)))
    cloud.run(until=cloud.now + 120_000)
    assert completion_order == [("w", 0), ("w", 1), ("w", 2), ("w", 3),
                                ("r", 0)]


def test_failed_predecessor_does_not_poison_successors():
    cloud, service = make_service(seed=502)
    c = service.connect()
    c.create("/a", b"")
    bad = c.set_data_async("/missing", b"x")   # will fail with NoNode
    good = c.set_data_async("/a", b"y")
    cloud.run(until=cloud.now + 60_000)
    with pytest.raises(NoNodeError):
        bad.wait()
    assert good.wait().version == 1


def test_mrd_advances_with_responses():
    cloud, service = make_service(seed=503)
    c = service.connect()
    c.create("/a", b"")
    assert c.mrd > 0
    before = c.mrd
    c.set_data("/a", b"x")
    assert c.mrd > before


def test_interleaved_reads_and_writes_pipeline():
    """Reads between writes all complete, in order, and each observes
    exactly the writes issued before it."""
    on_commit = {"distributor_enabled": True, "ack_policy": "on_commit"}
    for shape in (*SHAPES.values(), on_commit):
        cloud, service = make_service(seed=504, **shape)
        c = service.connect()
        c.create("/a", b"v0")
        reads = []
        for i in range(3):
            c.set_data_async("/a", f"v{i+1}".encode())
            reads.append(c.get_data_async("/a"))
        cloud.run(until=cloud.now + 120_000)
        assert all(fut.done for fut in reads)
        versions = [fut.wait()[1].version for fut in reads]
        if shape is on_commit:
            # acks precede replication, which may legally coalesce: a read
            # sees its own writes or newer, and the last one sees them all
            assert versions == sorted(versions) and versions[-1] == 3
            assert all(v >= i + 1 for i, v in enumerate(versions))
        else:
            assert versions == [1, 2, 3], shape


@shapes
def test_read_issued_before_a_write_does_not_wait_for_it(shape):
    """FIFO client order: a read issued before a pipelined write returns
    the pre-write image, as fast as if the write had never been issued."""
    def read_latency(with_write):
        cloud, service = make_service(seed=3, **shape)
        c = service.connect()
        c.create("/a", b"old")
        t0 = cloud.now
        read = c.get_data_async("/a")
        done_at = _stamped(cloud, read)
        if with_write:
            c.set_data_async("/a", b"new")
        cloud.run(until=cloud.now + 60_000)
        return read.wait(), done_at[0] - t0

    (data, stat), latency = read_latency(with_write=True)
    assert (data, stat.version) == (b"old", 0)
    assert latency == read_latency(with_write=False)[1]


@shapes
def test_read_your_writes_when_a_later_rejection_overtakes_the_ack(shape):
    """The follower's rejection of a second write can overtake the first
    write's leader response: the read must still wait for the first."""
    for seed in range(20):
        cloud, service = make_service(seed=seed, **shape)
        c = service.connect()
        c.create("/a", b"old")
        first = c.set_data_async("/a", b"new")
        rejected = c.set_data_async("/missing", b"x")
        read = c.get_data_async("/a")
        cloud.run(until=cloud.now + 60_000)
        assert first.wait().version == 1
        with pytest.raises(NoNodeError):
            rejected.wait()
        assert read.wait()[0] == b"new", seed


def test_watch_callbacks_are_per_registration():
    cloud, service = make_service(seed=505)
    c = service.connect()
    c.create("/a", b"")
    hits = []
    c.get_data("/a", watch=lambda ev: hits.append("first"))
    c.get_data("/a", watch=lambda ev: hits.append("second"))
    c.set_data("/a", b"x")
    cloud.run(until=cloud.now + 10_000)
    # both registrations joined the same instance: both callbacks fire once
    assert sorted(hits) == ["first", "second"]
