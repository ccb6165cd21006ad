"""Table 7a: end-to-end latency of function invocation paths on AWS.

Measures send -> handler -> TCP reply for: direct invocation, standard SQS,
SQS FIFO, and DynamoDB Streams, at 64 B and 64 kB payloads.  Also prints
the Section 5.2.2 cost comparison (SQS 160x cheaper than Streams).
Shape checks: FIFO is the fastest queue path (faster than direct), Streams
are ~10x slower, costs match the billing math.
"""

from repro.analysis import render_table, summarize
from repro.cloud import Cloud, OpContext, Set

REPS = 250
SIZES = {"64B": 0.0625, "64kB": 64.0}


def _reply_handler(cloud, replies):
    def handler(fctx, payload):
        yield 0.1  # empty function body
        latency = cloud.profile.tcp_reply.sample(cloud.rng.stream("tcp"), 0.0)
        yield latency
        replies.append(fctx.env.now)
        return None
    return handler


def _measure_path(cloud, send_one, replies, reps=REPS):
    samples = []
    for _ in range(reps):
        t0 = cloud.now
        n_before = len(replies)
        send_one()
        while len(replies) <= n_before:
            cloud.run(until=cloud.now + 50)
        samples.append(replies[-1] - t0)
    return summarize(samples)


def run():
    results = {}
    ctx = OpContext()
    for size_label, size_kb in SIZES.items():
        # direct
        cloud = Cloud.aws(seed=71)
        replies = []
        fn = cloud.deploy_function("d", _reply_handler(cloud, replies))
        cloud.env.run(until=cloud.runtime.invoke_direct(fn, None))  # warm up
        results[("direct", size_label)] = _measure_path(
            cloud, lambda: cloud.runtime.invoke_direct(fn, None, payload_kb=size_kb),
            replies)

        # standard SQS
        cloud = Cloud.aws(seed=72)
        replies = []
        fn = cloud.deploy_function("q", _reply_handler(cloud, replies))
        q = cloud.standard_queue("q", concurrency=2)
        q.attach(fn)
        q.send_nowait(ctx, None, size_kb=size_kb)
        cloud.run(until=cloud.now + 3000)  # warm up
        results[("sqs", size_label)] = _measure_path(
            cloud,
            lambda: cloud.env.process(q.send(ctx, None, size_kb=size_kb)),
            replies)

        # SQS FIFO
        cloud = Cloud.aws(seed=73)
        replies = []
        fn = cloud.deploy_function("f", _reply_handler(cloud, replies))
        q = cloud.fifo_queue("f")
        q.attach(fn)
        q.send_nowait(ctx, None, size_kb=size_kb)
        cloud.run(until=cloud.now + 3000)
        results[("sqs_fifo", size_label)] = _measure_path(
            cloud,
            lambda: cloud.env.process(q.send(ctx, None, size_kb=size_kb)),
            replies)

        # DynamoDB Streams
        cloud = Cloud.aws(seed=74)
        replies = []
        kv = cloud.kv()
        table = kv.create_table("t")
        fn = cloud.deploy_function("s", _reply_handler(cloud, replies))
        cloud.stream_trigger("s", table, fn)
        cloud.run_process(kv.put_item(ctx, "t", "k", {"v": 0}))
        cloud.run(until=cloud.now + 3000)
        i = [0]

        def stream_send():
            i[0] += 1
            cloud.run_process(kv.update_item(ctx, "t", "k", [Set("v", i[0])]))

        results[("ddb_stream", size_label)] = _measure_path(
            cloud, stream_send, replies, reps=120)

    print()
    rows = [[path, size] + s.row()
            for (path, size), s in sorted(results.items())]
    print(render_table(["path", "payload", "min", "p50", "p90", "p95",
                        "p99", "max"], rows,
                       title="Table 7a: AWS invocation latency (ms)"))
    # Section 5.2.2 cost comparison.
    sqs_cost = 0.5e-6          # one message <= 64 kB
    stream_cost = 80e-6        # 64 kB in 1 kB write units at $1.25/M
    print(f"cost per 64kB message: SQS ${sqs_cost:.2e}, "
          f"Streams ${stream_cost:.2e} ({stream_cost/sqs_cost:.0f}x)")
    return results


def test_tab7a_invocation_aws(benchmark):
    r = benchmark.pedantic(run, rounds=1, iterations=1)
    # FIFO queue is the fastest path -- faster than direct invocation.
    assert r[("sqs_fifo", "64B")].p50 < r[("direct", "64B")].p50
    # Direct ~39 ms, FIFO ~24 ms, Streams ~243 ms at the median.
    assert 30 < r[("direct", "64B")].p50 < 50
    assert 18 < r[("sqs_fifo", "64B")].p50 < 36
    assert 180 < r[("ddb_stream", "64B")].p50 < 320
    # Streams are several times slower than the SQS paths.
    assert r[("ddb_stream", "64B")].p50 > 4 * r[("sqs", "64B")].p50
    assert 30 < r[("sqs", "64B")].p50 < 60
    # Payload size adds a visible but secondary cost on queue paths.
    assert r[("sqs_fifo", "64kB")].p50 > r[("sqs_fifo", "64B")].p50
