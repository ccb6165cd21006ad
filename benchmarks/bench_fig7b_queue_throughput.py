"""Figure 7b: throughput of function invocations via serverless queues.

Offered load is swept; the received-results rate is measured over a 10 s
window for SQS, SQS FIFO and DynamoDB Streams (64 B payloads).  Shape
checks: the FIFO queue saturates around 10^2 req/s (batch-of-10 restriction
+ single instance), while the unordered paths keep up via large batches.
"""

from repro.analysis import render_table
from repro.cloud import Cloud, OpContext, Set

OFFERED = (25, 50, 75, 100, 150, 200)
WINDOW_MS = 10_000.0


def _drive(cloud, send, offered_per_s, received):
    interval = 1000.0 / offered_per_s

    def producer():
        end = cloud.now + WINDOW_MS
        while cloud.now < end:
            send()
            yield interval

    start_count = received[0]
    proc = cloud.env.process(producer())
    cloud.env.run(until=proc)
    cloud.run(until=cloud.now + 4000)  # drain
    return (received[0] - start_count) / (WINDOW_MS / 1000.0)


def _counting_handler(received, per_msg_ms=1.0):
    def handler(fctx, batch):
        yield per_msg_ms * len(batch)
        received[0] += len(batch)
        return None
    return handler


def run():
    ctx = OpContext()
    series = {"sqs": [], "sqs_fifo": [], "ddb_stream": []}
    for offered in OFFERED:
        # standard SQS
        cloud = Cloud.aws(seed=offered)
        received = [0]
        fn = cloud.deploy_function("h", _counting_handler(received))
        q = cloud.standard_queue("q", concurrency=4)
        q.attach(fn)
        series["sqs"].append(_drive(
            cloud, lambda: q.send_nowait(ctx, None, size_kb=0.0625),
            offered, received))

        # SQS FIFO
        cloud = Cloud.aws(seed=offered + 1000)
        received = [0]
        fn = cloud.deploy_function("h", _counting_handler(received))
        q = cloud.fifo_queue("q")
        q.attach(fn)
        series["sqs_fifo"].append(_drive(
            cloud, lambda: q.send_nowait(ctx, None, size_kb=0.0625),
            offered, received))

        # DynamoDB Streams
        cloud = Cloud.aws(seed=offered + 2000)
        received = [0]
        kv = cloud.kv()
        table = kv.create_table("t")
        fn = cloud.deploy_function("h", _counting_handler(received))
        cloud.stream_trigger("s", table, fn)
        i = [0]

        def stream_send():
            i[0] += 1
            cloud.env.process(kv.update_item(ctx, "t", f"k{i[0] % 50}",
                                             [Set("v", i[0])]))

        series["ddb_stream"].append(_drive(cloud, stream_send, offered, received))

    print()
    rows = [[OFFERED[i]] + [series[k][i] for k in ("sqs", "sqs_fifo", "ddb_stream")]
            for i in range(len(OFFERED))]
    print(render_table(["offered/s", "SQS", "SQS FIFO", "DDB Streams"],
                       rows, title="Figure 7b: queue-driven throughput (results/s)"))
    return series


def test_fig7b_queue_throughput(benchmark):
    series = benchmark.pedantic(run, rounds=1, iterations=1)
    fifo = series["sqs_fifo"]
    # FIFO keeps up at low rates...
    assert fifo[0] > 0.9 * OFFERED[0]
    # ...but saturates at the level of ~10^2 requests per second.
    assert fifo[-1] < 0.9 * OFFERED[-1]
    assert 80 < max(fifo) < 250
    # Unordered SQS sustains the highest offered rate via batching.
    assert series["sqs"][-1] > 0.9 * OFFERED[-1]
    # Streams also deliver everything (large batches), despite high latency.
    assert series["ddb_stream"][-1] > 0.8 * OFFERED[-1]
