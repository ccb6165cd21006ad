"""Unit tests for FIFO/standard queues and the stream trigger."""

import pytest

from repro.cloud import PayloadTooLarge


def _collector(log):
    def handler(fctx, batch):
        yield fctx.env.timeout(1)
        log.extend(batch)
        return len(batch)
    return handler


def test_fifo_delivers_in_order(cloud, ctx):
    log = []
    q = cloud.fifo_queue("q")
    fn = cloud.deploy_function("h", _collector(log))
    q.attach(fn)

    def producer():
        for i in range(20):
            yield from q.send(ctx, i)

    cloud.run_process(producer())
    cloud.run(until=cloud.now + 10_000)
    assert log == list(range(20))
    assert q.delivered == 20


def test_fifo_sequence_numbers_monotone(cloud, ctx):
    q = cloud.fifo_queue("q")
    seqs = []

    def producer():
        for i in range(5):
            seq = yield from q.send(ctx, i)
            seqs.append(seq)

    cloud.run_process(producer())
    assert seqs == [1, 2, 3, 4, 5]


def test_fifo_batching_respects_limit(cloud, ctx):
    batches = []

    def handler(fctx, batch):
        yield fctx.env.timeout(1)
        batches.append(len(batch))
        return None

    q = cloud.fifo_queue("q")
    fn = cloud.deploy_function("h", handler)
    # enqueue 25 messages instantly, then attach: first batch capped at 10
    for i in range(25):
        q.send_nowait(ctx, i)
    q.attach(fn)
    cloud.run(until=10_000)
    assert sum(batches) == 25
    assert max(batches) <= 10  # SQS FIFO batch restriction (Section 5.2.2)


def test_fifo_single_instance_no_overlap(cloud, ctx):
    """Requirement (c): only one function instance at a time."""
    active = {"n": 0, "max": 0}

    def handler(fctx, batch):
        active["n"] += 1
        active["max"] = max(active["max"], active["n"])
        yield fctx.env.timeout(50)
        active["n"] -= 1
        return None

    q = cloud.fifo_queue("q")
    fn = cloud.deploy_function("h", handler)
    q.attach(fn, batch_limit=1)
    for i in range(10):
        q.send_nowait(ctx, i)
    cloud.run(until=60_000)
    assert active["max"] == 1


def test_fifo_retry_preserves_order(cloud, ctx):
    """A failed batch is redelivered before younger messages."""
    log = []

    def handler(fctx, batch):
        yield fctx.env.timeout(1)
        log.extend(batch)
        return None

    q = cloud.fifo_queue("q")
    fn = cloud.deploy_function("h", handler)
    cloud.runtime.plan_crash("h:1:start")  # first delivery dies
    q.attach(fn, batch_limit=1)
    for i in range(5):
        q.send_nowait(ctx, i)
    cloud.run(until=60_000)
    assert log == [0, 1, 2, 3, 4]
    assert fn.failures == 1


def test_fifo_drops_poison_message_after_max_receive(cloud, ctx):
    log = []
    dropped = []

    def handler(fctx, batch):
        yield fctx.env.timeout(1)
        log.extend(batch)
        return None

    q = cloud.fifo_queue("q", max_receive=3)
    q.on_drop = dropped.append
    fn = cloud.deploy_function("h", handler)
    # every delivery of the poison message (the first three) dies
    cloud.runtime.plan_crash("h:1:start", "h:2:start", "h:3:start")
    q.attach(fn, batch_limit=1)
    q.send_nowait(ctx, "poison")
    q.send_nowait(ctx, "ok")
    cloud.run(until=60_000)
    assert log == ["ok"]
    assert len(q.dropped) == 1
    assert dropped[0].receive_count == 3


def test_fifo_payload_limit(cloud, ctx):
    q = cloud.fifo_queue("q")
    with pytest.raises(PayloadTooLarge):
        cloud.run_process(q.send(ctx, "big", size_kb=300.0))


def test_queue_cost_billed_in_64kb_chunks(cloud, ctx):
    q = cloud.fifo_queue("q")
    cloud.run_process(q.send(ctx, "small", size_kb=1.0))
    small = cloud.meter.total
    cloud.run_process(q.send(ctx, "large", size_kb=100.0))
    large = cloud.meter.total - small
    assert small == pytest.approx(0.5e-6)
    assert large == pytest.approx(1.0e-6)  # two 64 kB chunks


def test_standard_queue_delivers_everything(cloud, ctx):
    log = []
    q = cloud.standard_queue("q")
    fn = cloud.deploy_function("h", _collector(log))
    q.attach(fn)

    def producer():
        for i in range(30):
            yield from q.send(ctx, i)

    cloud.run_process(producer())
    cloud.run(until=cloud.now + 60_000)
    assert sorted(log) == list(range(30))


def test_standard_queue_batches_larger_than_fifo(cloud, ctx):
    """The jittered collection window accumulates large batches (Fig. 7b)."""
    batches = []

    def handler(fctx, batch):
        yield fctx.env.timeout(1)
        batches.append(len(batch))
        return None

    q = cloud.standard_queue("q", concurrency=1)
    fn = cloud.deploy_function("h", handler)
    q.attach(fn)
    for i in range(50):
        q.send_nowait(ctx, i)
    cloud.run(until=60_000)
    assert max(batches) > 10


def test_stream_trigger_delivers_table_changes(cloud, ctx):
    from repro.cloud import Set

    kv = cloud.kv()
    table = kv.create_table("t")
    seen = []

    def handler(fctx, records):
        yield fctx.env.timeout(1)
        seen.extend((r.key, r.new_image) for r in records)
        return None

    fn = cloud.deploy_function("h", handler)
    cloud.stream_trigger("s", table, fn)

    def writer():
        yield from kv.put_item(ctx, "t", "a", {"v": 1})
        yield from kv.update_item(ctx, "t", "a", [Set("v", 2)])

    cloud.run_process(writer())
    cloud.run(until=cloud.now + 10_000)
    assert seen == [("a", {"v": 1}), ("a", {"v": 2})]


def test_standard_queue_redelivers_every_message_of_a_failed_batch(cloud, ctx):
    """At-least-once: a batch whose handler asks for redelivery is requeued
    whole, so each of its messages is delivered again."""
    from repro.cloud.errors import Redeliver

    batches = []

    def handler(fctx, batch):
        yield fctx.env.timeout(1)
        batches.append(list(batch))
        if len(batches) == 1:
            raise Redeliver("the first batch fails once")
        return None

    q = cloud.standard_queue("q", concurrency=1)
    fn = cloud.deploy_function("h", handler)
    q.attach(fn)
    for i in range(30):
        q.send_nowait(ctx, i)
    cloud.run(until=60_000)
    failed, later = batches[0], [m for batch in batches[1:] for m in batch]
    assert len(failed) > 1
    assert sorted(later) == list(range(30))  # the failed ones among them
    assert q.delivered == 30


def test_stream_redelivers_a_failed_batch_in_order_ahead_of_newer_records(cloud, ctx):
    """A stream shard is strictly ordered: a batch whose handler asks for
    redelivery comes back whole, in its original order, before the records
    that arrived while it failed."""
    from repro.cloud.errors import Redeliver

    kv = cloud.kv()
    table = kv.create_table("t")
    batches = []

    def handler(fctx, records):
        batches.append([r.key for r in records])
        if len(batches) == 1:
            for key in ("n1", "n2"):  # newer records, queued behind the batch
                yield from kv.put_item(ctx, "t", key, {"v": 1})
            raise Redeliver("the first batch fails once")
        yield fctx.env.timeout(1)
        return None

    fn = cloud.deploy_function("h", handler)
    cloud.stream_trigger("s", table, fn)

    cloud.run_process(kv.batch_put(ctx, "t", dict.fromkeys(("k1", "k2", "k3"), {"v": 1})))
    cloud.run(until=cloud.now + 10_000)
    assert batches == [["k1", "k2", "k3"], ["k1", "k2", "k3", "n1", "n2"]]


def test_stream_latency_much_higher_than_fifo(cloud, ctx):
    """Table 7a: Streams ~243 ms vs SQS FIFO ~24 ms median."""
    kv = cloud.kv()
    table = kv.create_table("t")
    arrivals = []

    def handler(fctx, records):
        arrivals.append(fctx.now)
        yield fctx.env.timeout(0)
        return None

    fn = cloud.deploy_function("h", handler)
    cloud.stream_trigger("s", table, fn)
    t0 = cloud.now
    cloud.run_process(kv.put_item(ctx, "t", "a", {"v": 1}))
    cloud.run(until=cloud.now + 10_000)
    # first delivery includes a cold start (~180ms) + stream latency (~240ms)
    assert arrivals[0] - t0 > 200


# ------------------------------------------------------------ pay-per-use
def test_idle_queue_owns_no_stream_no_dispatcher_no_buffer(cloud, ctx):
    """Everything a queue owns is allocated by its first message."""
    log = []
    q = cloud.fifo_queue("lazy")
    q.attach(cloud.deploy_function("h", _collector(log)))
    cloud.run(until=cloud.now + 1_000)
    assert "queue:lazy" not in cloud.rng
    assert not q._dispatching and q._buffer._items is None
    assert q._buffer._getter is None
    cloud.run_process(q.send(ctx, "first"))
    cloud.run(until=cloud.now + 10_000)
    assert log == ["first"]
    assert "queue:lazy" in cloud.rng and q._dispatching
    # between batches the one dispatcher parks in the buffer's waiter slot
    assert q._buffer._getter is not None and q._buffer._getters is None


def test_queue_draws_are_the_same_whenever_its_stream_starts():
    """Two clouds, same seed: one queue's first draw comes after a lot of
    unrelated traffic, the other's right away — same latencies."""
    from repro.cloud import Cloud, OpContext

    def send_times(warmup):
        cloud, ctx = Cloud.aws(seed=99), OpContext()
        other = cloud.fifo_queue("other")
        q = cloud.fifo_queue("q")

        def flow():
            for i in range(warmup):
                yield from other.send(ctx, i)
            start = cloud.now
            for i in range(5):
                yield from q.send(ctx, i)
            return cloud.now - start

        return cloud.run_process(flow())

    # (the clock sums the same five latencies from a different origin)
    assert send_times(0) == pytest.approx(send_times(25), rel=1e-12)


def test_all_three_queue_kinds_resolve_streams_lazily(cloud, ctx):
    table = cloud.kv().create_table("t")
    fn = cloud.deploy_function("h", _collector([]))
    cloud.fifo_queue("f").attach(fn)
    cloud.standard_queue("s").attach(fn)
    cloud.stream_trigger("st", table, fn)
    cloud.run(until=cloud.now + 1_000)
    for name in ("queue:f", "queue:s", "stream:st"):
        assert name not in cloud.rng


def test_messages_sent_before_attach_are_delivered_in_order(cloud, ctx):
    log = []
    q = cloud.fifo_queue("early")
    for i in range(3):
        q.send_nowait(ctx, i)
    q.attach(cloud.deploy_function("h", _collector(log)), batch_limit=2)
    q.send_nowait(ctx, 3)
    cloud.run(until=cloud.now + 10_000)
    assert log == [0, 1, 2, 3] and q.backlog == 0


def test_delete_queue_drops_buffer_stream_and_dispatcher(cloud, ctx):
    from repro.cloud.errors import NoSuchQueue

    log = []
    q = cloud.fifo_queue("gone")
    q.attach(cloud.deploy_function("h", _collector(log)), batch_limit=1)
    for i in range(3):
        q.send_nowait(ctx, i)
    cloud.run(until=cloud.now + 0.5)            # batch [0] is in flight
    undelivered = cloud.delete_queue("gone")
    assert [m.body for m in undelivered] == [1, 2]
    assert "queue:gone" not in cloud.rng and q.backlog == 0
    cloud.run(until=cloud.now + 10_000)
    assert log == [0]                            # in-flight batch completes
    with pytest.raises(NoSuchQueue):
        q.send_nowait(ctx, "late")
    with pytest.raises(NoSuchQueue):
        cloud.run_process(q.send(ctx, "late"))
    assert "queue:gone" not in cloud.rng        # a failed send resolves nothing
    cloud.fifo_queue("gone")                     # the name is free again
