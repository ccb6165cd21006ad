"""Sharded leader pipeline: write throughput vs. shard count.

The paper's single FIFO queue + single leader function (Algorithm 2) caps
write throughput: every committed update serializes through one replication
pipeline.  This bench partitions the znode tree over N leader shards
(``FaaSKeeperConfig.leader_shards``) and measures aggregate acknowledged
write throughput for shards in {1, 2, 4, 8} under a multi-subtree workload
(one client per top-level subtree, pipelined async writes).

Every shard replicates each committed image, exactly like the single
leader, so the inline column measures sharding alone.  A second column
runs the same shard counts with the distributor stage and
``ack_policy="on_commit"``, the pipeline that coalesces superseded writes.
Shape checks: shards=1 reproduces the single-leader (default-config)
result exactly, and throughput scales with the shard count — shards=2 and
shards=4 must beat shards=1 strictly (the acceptance gate), with 8 shards
at or above 90 % of 4; the distributor column is at least the inline one
at every shard count.

``FK_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

import os

from repro.analysis import render_table
from repro.cloud import Cloud
from repro.faaskeeper import FaaSKeeperConfig, FaaSKeeperService

SHARDS = (1, 2, 4, 8)
SMOKE = os.environ.get("FK_BENCH_SMOKE", "") not in ("", "0")
SUBTREES = 8
WRITES_PER_CLIENT = 6 if SMOKE else 48
PAYLOAD = b"x" * 256
SEED = 2024


def _run_workload(service: FaaSKeeperService, cloud: Cloud) -> float:
    """Aggregate acked writes/s: one session per subtree, writes pipelined."""
    clients = [service.connect() for _ in range(SUBTREES)]
    for i, c in enumerate(clients):
        c.create(f"/t{i}", b"")
        c.create(f"/t{i}/hot", b"")
    start = cloud.now
    futures = []
    for i, c in enumerate(clients):
        for _ in range(WRITES_PER_CLIENT):
            futures.append(c.set_data_async(f"/t{i}/hot", PAYLOAD))
    deadline = cloud.now + 600_000
    while cloud.now < deadline and not all(f.done for f in futures):
        cloud.run(until=cloud.now + 1_000)
    acked = sum(1 for f in futures if f.done and f.event.ok)
    elapsed_s = (cloud.now - start) / 1000.0
    return acked / max(elapsed_s, 1e-9)


def _deploy(num_shards=None, **knobs):
    cloud = Cloud.aws(seed=SEED)
    config = (FaaSKeeperConfig() if num_shards is None
              else FaaSKeeperConfig(leader_shards=num_shards, **knobs))
    return cloud, FaaSKeeperService.deploy(cloud, config)


def run():
    throughput, distributed = {}, {}
    for shards in SHARDS:
        cloud, service = _deploy(shards)
        throughput[shards] = _run_workload(service, cloud)
        cloud, service = _deploy(shards, distributor_enabled=True,
                                 ack_policy="on_commit")
        distributed[shards] = _run_workload(service, cloud)
    # Single-leader baseline: the default configuration, untouched by the
    # sharding knob — shards=1 must reproduce it bit-for-bit.
    cloud, service = _deploy(None)
    baseline = _run_workload(service, cloud)
    rows = [[s, f"{throughput[s]:.1f}",
             f"{throughput[s] / throughput[1]:.2f}x",
             f"{distributed[s]:.1f}"]
            for s in SHARDS]
    rows.append(["1 (paper cfg)", f"{baseline:.1f}",
                 f"{baseline / throughput[1]:.2f}x", "-"])
    print()
    print(render_table(
        ["leader shards", "writes/s", "vs single leader",
         "distributor + on_commit writes/s"],
        rows, title="Sharded leader pipeline: write throughput"))
    return throughput, baseline, distributed


def test_sharded_write_throughput(benchmark):
    throughput, baseline, distributed = benchmark.pedantic(
        run, rounds=1, iterations=1)
    # shards=1 is the paper's single-leader pipeline, unchanged.
    assert throughput[1] == baseline
    # Sharding must buy real write throughput (the acceptance gate).
    assert throughput[2] > throughput[1]
    assert throughput[4] > throughput[1]
    assert throughput[8] >= throughput[4] * 0.9  # allow plateau, not regression
    # Coalescing lives in the distributor stage: at every shard count that
    # pipeline keeps at least the inline leader's throughput.
    for shards in SHARDS:
        assert distributed[shards] >= throughput[shards], shards


if __name__ == "__main__":
    run()
