"""Table 6a: latency of synchronization primitives on DynamoDB.

1000 warm repetitions of: a regular write (1 kB / 64 kB), timed-lock
acquire and release (1 kB / 64 kB items), an atomic counter increment, and
atomic list appends (1 item / 1024 x 1 kB items).  Shape checks: the lock
adds ~2.5 ms over a regular write at the median; the item size dominates
the spread; list appends scale with payload.
"""

import dataclasses

from repro.analysis import render_table, summarize
from repro.cloud import Cloud, OpContext, Set
from repro.cloud.kvstore import KeyValueStore
from repro.primitives import AtomicCounter, AtomicList, TimedLock

REPS = 1000


def run():
    cloud = Cloud.aws(seed=66)
    # The 1024 x 1 kB append exceeds DynamoDB's real 400 kB cap; the paper
    # measured it regardless (the API accepts the update until the item
    # limit bites), so the bench lifts the cap for this one table.
    profile = dataclasses.replace(cloud.profile, kv_item_limit_kb=4096.0)
    kv = KeyValueStore(cloud.env, profile, cloud.meter,
                       cloud.rng.stream("bench6a"), region=cloud.region,
                       service_label="kv")
    kv.create_table("t")
    ctx = OpContext()
    lock = TimedLock(kv, "t", max_hold_ms=10_000)
    results = {}

    def measure(name, flow_factory, reps=REPS):
        samples = []
        for _ in range(reps):
            t0 = cloud.now
            cloud.run_process(flow_factory())
            samples.append(cloud.now - t0)
        results[name] = summarize(samples)

    for size_label, size in (("1kB", 1024), ("64kB", 64 * 1024)):
        item = {"data": b"x" * size}
        cloud.run_process(kv.put_item(ctx, "t", f"n{size}", item))
        measure(f"regular write {size_label}",
                lambda k=f"n{size}", it=item: kv.put_item(ctx, "t", k, it))

        def acquire_release(key):
            handle = yield from lock.acquire(ctx, key)
            assert handle is not None
            t_mid = cloud.now
            ok = yield from lock.release(ctx, handle)
            assert ok
            return t_mid

        # measure acquire and release separately
        acq, rel = [], []
        for _ in range(REPS):
            t0 = cloud.now
            mid = cloud.run_process(acquire_release(f"n{size}"))
            acq.append(mid - t0)
            rel.append(cloud.now - mid)
        results[f"lock acquire {size_label}"] = summarize(acq)
        results[f"lock release {size_label}"] = summarize(rel)

    counter = AtomicCounter(kv, "t", "cnt")
    measure("atomic counter 8B", lambda: counter.increment(ctx))

    lst1 = AtomicList(kv, "t", "lst1")
    measure("list append 1", lambda: lst1.append(ctx, ["x" * 1024]))

    big = ["x" * 1024 for _ in range(1024)]
    lstN = AtomicList(kv, "t", "lstN")

    def append_big():
        yield from lstN.pop_head(ctx, 2048)
        t0 = cloud.now
        yield from lstN.append(ctx, big)
        return cloud.now - t0

    samples = [cloud.run_process(append_big()) for _ in range(100)]
    results["list append 1024"] = summarize(samples)

    print()
    rows = [[name] + s.row() for name, s in results.items()]
    print(render_table(
        ["primitive", "min", "p50", "p90", "p95", "p99", "max"], rows,
        title="Table 6a: synchronization primitive latency (ms)"))
    return results


def test_tab6a_sync_primitives(benchmark):
    r = benchmark.pedantic(run, rounds=1, iterations=1)
    # Lock acquire adds ~2.5 ms over the regular write median (1 kB row).
    delta = r["lock acquire 1kB"].p50 - r["regular write 1kB"].p50
    assert 1.5 < delta < 4.0
    # Regular write medians sit near the paper's 4.35 / 66.3 ms.
    assert 3.8 < r["regular write 1kB"].p50 < 5.5
    assert 55 < r["regular write 64kB"].p50 < 80
    # Atomic counter ~5.6 ms median.
    assert 4.5 < r["atomic counter 8B"].p50 < 7.0
    # Large list appends near the paper's ~76 ms median.
    assert 50 < r["list append 1024"].p50 < 110
    # Tails: max an order of magnitude above p50 somewhere (outlier model).
    assert r["regular write 1kB"].max > 5 * r["regular write 1kB"].p50
