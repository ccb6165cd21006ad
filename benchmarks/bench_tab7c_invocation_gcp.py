"""Table 7c: end-to-end invocation latency on GCP.

Direct Cloud Functions invocation vs Pub/Sub (unordered) vs Pub/Sub with
ordered delivery, 64 B and 64 kB payloads.  Shape checks: unordered
Pub/Sub beats direct invocation; ordered delivery adds >150 ms — the
opposite ranking from AWS, where the FIFO queue was the fastest path.
"""

from repro.analysis import render_table, summarize
from repro.cloud import Cloud, OpContext

REPS = 200
SIZES = {"64B": 0.0625, "64kB": 64.0}


def _reply_handler(cloud, replies):
    def handler(fctx, payload):
        yield 0.1
        latency = cloud.profile.tcp_reply.sample(cloud.rng.stream("tcp"), 0.0)
        yield latency
        replies.append(fctx.env.now)
        return None
    return handler


def _measure(cloud, send_one, replies, reps=REPS):
    samples = []
    for _ in range(reps):
        t0 = cloud.now
        n = len(replies)
        send_one()
        while len(replies) <= n:
            cloud.run(until=cloud.now + 50)
        samples.append(replies[-1] - t0)
    return summarize(samples)


def run():
    ctx = OpContext()
    results = {}
    for size_label, size_kb in SIZES.items():
        cloud = Cloud.gcp(seed=75)
        replies = []
        fn = cloud.deploy_function("d", _reply_handler(cloud, replies))
        cloud.env.run(until=cloud.runtime.invoke_direct(fn, None))
        results[("direct", size_label)] = _measure(
            cloud, lambda: cloud.runtime.invoke_direct(fn, None,
                                                       payload_kb=size_kb),
            replies)

        cloud = Cloud.gcp(seed=76)
        replies = []
        fn = cloud.deploy_function("p", _reply_handler(cloud, replies))
        q = cloud.standard_queue("p", concurrency=2)
        q.attach(fn)
        q.send_nowait(ctx, None, size_kb=size_kb)
        cloud.run(until=cloud.now + 3000)
        results[("pubsub", size_label)] = _measure(
            cloud, lambda: cloud.env.process(q.send(ctx, None, size_kb=size_kb)),
            replies)

        cloud = Cloud.gcp(seed=77)
        replies = []
        fn = cloud.deploy_function("o", _reply_handler(cloud, replies))
        q = cloud.fifo_queue("o")
        q.attach(fn)
        q.send_nowait(ctx, None, size_kb=size_kb)
        cloud.run(until=cloud.now + 3000)
        results[("pubsub_ordered", size_label)] = _measure(
            cloud, lambda: cloud.env.process(q.send(ctx, None, size_kb=size_kb)),
            replies)

    print()
    rows = [[path, size] + s.row()
            for (path, size), s in sorted(results.items())]
    print(render_table(["path", "payload", "min", "p50", "p90", "p95",
                        "p99", "max"], rows,
                       title="Table 7c: GCP invocation latency (ms)"))
    return results


def test_tab7c_invocation_gcp(benchmark):
    r = benchmark.pedantic(run, rounds=1, iterations=1)
    # Unordered Pub/Sub is faster than direct invocation on GCP.
    assert r[("pubsub", "64B")].p50 < r[("direct", "64B")].p50
    # Ordered delivery is the slow path: > 150 ms median, slower than direct.
    assert r[("pubsub_ordered", "64B")].p50 > 150
    assert r[("pubsub_ordered", "64B")].p50 > 2 * r[("direct", "64B")].p50
    # Direct ~83 ms median.
    assert 60 < r[("direct", "64B")].p50 < 110
