"""Asynchronous distributor stage: client-perceived write latency.

The inline leader (Algorithm 2) acknowledges a write only after replicating
it into every region's user store and finishing the watch round trips, so
client-perceived latency grows with the region count.  With
``distributor_enabled`` + ``ack_policy="on_commit"`` the leader acks right
after commit verification and per-region distributor functions own the
replication, the watch fan-out and the ``replicated_tx`` visibility
watermark (read-your-writes rides the watermark instead of the ack).

This bench measures p50/p99 ``set_data`` latency at ``regions=2`` for the
distributor off vs. on at 1 and 4 leader shards, and emits the results as
machine-readable ``BENCH_write_latency.json`` (uploaded as a CI artifact —
the start of the perf trajectory).

Acceptance gates: the distributor must improve p50 by >= 30% at both shard
counts, and the distributor-OFF deployment must reproduce the pre-PR
write-path fingerprint bit-for-bit (default config and ``regions=2``).

``FK_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs;
``FK_BENCH_JSON`` overrides the JSON output path.
"""

import json
import os

from repro.analysis import render_table, summarize
from repro.analysis.bench import timed
from repro.cloud import Cloud
from repro.faaskeeper import FaaSKeeperConfig, FaaSKeeperService

SMOKE = os.environ.get("FK_BENCH_SMOKE", "") not in ("", "0")
JSON_PATH = os.environ.get("FK_BENCH_JSON", "BENCH_write_latency.json")
REGIONS = ["us-east-1", "eu-west-1"]
SHARDS = (1, 4)
REPS = 20 if SMOKE else 120
PAYLOAD = b"x" * 1024
SEED = 2024

#: Pre-PR write-path fingerprint (seed 4242): per-write virtual-clock
#: latencies of 2 creates + 10 set_data + 1 delete, end time and total
#: metered cost.  CI fails when the distributor-off pipeline deviates from
#: the pre-distributor behaviour.
WRITE_BASELINE_DEFAULT = (
    (594.734613, 273.231794, 99.189123, 138.14087, 123.263926, 129.502453,
     109.023305, 118.588677, 148.810069, 196.925959, 224.894871, 130.758786,
     207.513034),
    7564.033088,                # virtual end time (ms)
    0.000277711254845,          # total metered cost ($)
)
WRITE_BASELINE_TWO_REGIONS = (
    (831.697752, 489.937138, 381.545728, 411.865452, 437.345661, 399.186941,
     417.349508, 410.060567, 455.748057, 428.742089, 532.123869, 401.584965,
     408.164114),
    11385.03898,
    0.00049233446933,
)
WRITE_BASELINE_FOUR_SHARDS = (
    (595.311145, 209.461507, 140.501635, 167.978419, 127.672989, 152.434513,
     119.628862, 162.061447, 148.966207, 191.450438, 786.18023, 145.807062,
     149.491375),
    8166.401434,
    0.000280645962394,
)


def write_fingerprint(**config_kwargs):
    """Deterministic write-path fingerprint (the CI baseline)."""
    cloud = Cloud.aws(seed=4242)
    service = FaaSKeeperService.deploy(cloud,
                                       FaaSKeeperConfig(**config_kwargs))
    client = service.connect()
    lat = [round(timed(cloud, lambda: client.create("/wf", b"")), 6),
           round(timed(cloud, lambda: client.create("/wf/kid", b"seed")), 6)]
    for _ in range(10):
        lat.append(round(
            timed(cloud, lambda: client.set_data("/wf", b"payload" * 8)), 6))
    lat.append(round(timed(cloud, lambda: client.delete("/wf/kid")), 6))
    cloud.run(until=cloud.now + 5_000)
    return (tuple(lat), round(cloud.now, 6),
            round(sum(cloud.meter.by_service().values()), 15))


def _measure(shards, distributor):
    cloud = Cloud.aws(seed=SEED)
    config = FaaSKeeperConfig(
        regions=list(REGIONS), leader_shards=shards,
        distributor_enabled=distributor,
        ack_policy="on_commit" if distributor else "on_replicate")
    service = FaaSKeeperService.deploy(cloud, config)
    client = service.connect()
    client.create("/bench", b"")
    client.create("/bench/hot", b"")
    samples = [timed(cloud, lambda: client.set_data("/bench/hot", PAYLOAD))
               for _ in range(REPS)]
    cloud.run(until=cloud.now + 30_000)  # drain the distributor queues
    # Sanity: the last acknowledged write must be readable (the visibility
    # watermark, not the ack, carries read-your-writes).
    data, _stat = client.get_data("/bench/hot")
    assert data == PAYLOAD
    return summarize(samples)


def run():
    out = {}
    rows = []
    for shards in SHARDS:
        off = _measure(shards, distributor=False)
        on = _measure(shards, distributor=True)
        out[shards] = {"off": off, "on": on}
        rows.append([shards, f"{off.p50:.1f}", f"{off.p99:.1f}",
                     f"{on.p50:.1f}", f"{on.p99:.1f}",
                     f"{100 * (1 - on.p50 / off.p50):.0f}%"])
    print()
    print(render_table(
        ["shards", "inline p50", "inline p99", "distributor p50",
         "distributor p99", "p50 cut"],
        rows,
        title=f"Distributor stage: set_data latency, regions={len(REGIONS)}"))
    payload = {
        "bench": "bench_distributor_latency",
        "regions": len(REGIONS),
        "reps": REPS,
        "payload_bytes": len(PAYLOAD),
        "series": {
            f"shards{shards}": {
                tag: {"p50_ms": round(s.p50, 3), "p99_ms": round(s.p99, 3)}
                for tag, s in series.items()
            }
            for shards, series in out.items()
        },
    }
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {JSON_PATH}")
    return out


def test_distributor_write_latency(benchmark):
    out = benchmark.pedantic(run, rounds=1, iterations=1)
    for shards, series in out.items():
        # The acceptance gate: >= 30% lower client-perceived p50 once
        # commit and distribution are separate stages.
        assert series["on"].p50 <= 0.70 * series["off"].p50, (shards, series)
        assert series["on"].p99 < series["off"].p99, (shards, series)


def test_distributor_off_matches_pre_pr_baseline():
    """The distributor wiring must not move the inline pipeline: every
    distributor-off configuration — the default, the two-region and the
    PR1 sharded one — reproduces its pre-PR write fingerprint bit-for-bit
    (virtual timings, end time and metered cost)."""
    assert write_fingerprint() == WRITE_BASELINE_DEFAULT
    assert write_fingerprint(distributor_enabled=False) == WRITE_BASELINE_DEFAULT
    assert write_fingerprint(regions=list(REGIONS)) == WRITE_BASELINE_TWO_REGIONS
    assert write_fingerprint(leader_shards=4) == WRITE_BASELINE_FOUR_SHARDS


if __name__ == "__main__":
    run()
