"""Write latency and throughput under seeded transient storage faults.

The self-healing storage layer's cost model: retries trade tail latency
for availability.  This bench drives the same ``set_data`` workload at
0 % / 1 % / 5 % injected fault rates (throttles, timeouts, connection
resets, partial writes on every storage endpoint) and reports per-rate
p50/p99 latency, throughput, and the retry-layer bookkeeping (faults
injected, retries spent, zero failed operations).

Acceptance gates: the 0 % run injects and retries nothing (that the idle
boundary moves no event is ``test_retry_layer_is_invisible_without_faults``,
against the raw store); every op succeeds at every rate (availability);
p50 stays close to fault-free while p99 absorbs the backoff tail (graceful
degradation, not collapse).

Emits machine-readable ``BENCH_storage_faults.json`` (uploaded as a CI
artifact).  ``FK_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs;
``FK_BENCH_JSON`` overrides the JSON output path.
"""

import json
import os

from repro.analysis import render_table, summarize
from repro.analysis.bench import deploy_fk, timed

SMOKE = os.environ.get("FK_BENCH_SMOKE", "") not in ("", "0")
JSON_PATH = os.environ.get("FK_BENCH_JSON", "BENCH_storage_faults.json")
RATES = (0.0, 0.01, 0.05)
REPS = 40 if SMOKE else 120
SEED = 1337


def _run_workload(rate):
    """One deployment at the given fault rate; returns (samples, stats)."""
    cloud, service, client = deploy_fk(
        seed=SEED, user_store="hybrid", storage_fault_rate=rate)
    client.create("/bench", b"")
    payload = b"x" * 1024
    t0 = cloud.now
    samples = [timed(cloud, lambda: client.set_data("/bench", payload))
               for _ in range(REPS)]
    elapsed_s = (cloud.now - t0) / 1000.0
    snap = service.metrics_snapshot()
    injected = sum(i.total_injected() for i in service.storage_injectors)
    retries = sum(snap["fk_storage_retries_total"]["values"].values()) \
        if "fk_storage_retries_total" in snap else 0
    exhausted = sum(snap["fk_storage_retry_exhausted_total"]["values"]
                    .values()) if "fk_storage_retry_exhausted_total" in snap \
        else 0
    stats = {
        "throughput_ops_s": REPS / elapsed_s,
        "faults_injected": int(injected),
        "retries": int(retries),
        "exhausted": int(exhausted),
        "cost_usd": cloud.meter.total,
    }
    return samples, stats


def run():
    out = {}
    rows = []
    baseline_samples = None
    for rate in RATES:
        samples, stats = _run_workload(rate)
        if rate == 0.0:
            baseline_samples = samples
        s = summarize(samples)
        out[f"{rate:g}"] = {
            "p50_ms": round(s.p50, 3),
            "p99_ms": round(s.p99, 3),
            "max_ms": round(s.max, 3),
            **{k: round(v, 6) if isinstance(v, float) else v
               for k, v in stats.items()},
        }
        rows.append([f"{100 * rate:g}%", round(s.p50, 1), round(s.p99, 1),
                     f"{stats['throughput_ops_s']:.2f}",
                     stats["faults_injected"], stats["retries"],
                     stats["exhausted"]])
    print()
    print(render_table(
        ["fault rate", "p50 ms", "p99 ms", "ops/s", "faults", "retries",
         "exhausted"],
        rows, title=f"set_data under injected storage faults ({REPS} ops, "
                    "hybrid store)"))
    payload = {
        "bench": "bench_storage_faults",
        "reps": REPS,
        "store": "hybrid",
        "series": out,
    }
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {JSON_PATH}")
    return out, baseline_samples


def test_retries_degrade_gracefully(benchmark):
    out, _base = benchmark.pedantic(run, rounds=1, iterations=1)
    clean, faulty = out["0"], out["0.05"]
    # Availability: every op succeeded at every rate.
    for series in out.values():
        assert series["exhausted"] == 0, out
    # The matrix actually injected faults and the layer actually retried.
    assert out["0"]["faults_injected"] == 0 and out["0"]["retries"] == 0
    assert faulty["faults_injected"] > 0
    assert faulty["retries"] >= faulty["faults_injected"] * 0.5
    # Graceful degradation: the median barely moves (most ops see no
    # fault), the tail absorbs the backoff, and nothing collapses.
    assert faulty["p50_ms"] < 2.0 * clean["p50_ms"], out
    assert faulty["p99_ms"] >= clean["p99_ms"], out
    assert faulty["p99_ms"] < 30.0 * clean["p99_ms"], out
    assert faulty["throughput_ops_s"] < clean["throughput_ops_s"]
    assert faulty["throughput_ops_s"] > 0.2 * clean["throughput_ops_s"], out


if __name__ == "__main__":
    run()
