"""Session-plane scale-out: 100k-session swarm, flat vs. sharded.

Drives :class:`repro.faaskeeper.swarm.SessionSwarm` against two
deployments of the same spec — ``session_plane_shards=1`` (the paper's
flat session plane) and ``session_plane_shards=8`` — and reports
p50/p99/p999 for the four swarm metric families: heartbeat-sweep latency,
watch fan-out latency, eviction lag and session-registration throughput.

Acceptance gates: the swarm sustains the full session population live
through the run (registration minus the deliberate churn cohorts); all
four metric families emit samples; every shard swept once per period and
every silent session was evicted once; and at ≥ 4 shards the
heartbeat-sweep p99 beats the flat plane by ≥ 3× — each partitioned scan
owns 1/N of the table, which is what keeps sweep latency flat as the
fleet grows (the crons are staggered so the N scan results are not
resident at once, not for latency).

Emits machine-readable ``BENCH_swarm.json`` (uploaded as a CI artifact).
``FK_BENCH_SMOKE=1`` drops to a 5k-session smoke swarm (and a relaxed
2× gate — slice scans amortize less at small populations);
``FK_SWARM_SESSIONS`` overrides the population outright and
``FK_BENCH_JSON`` the JSON output path.
"""

import json
import os

from repro.analysis import render_table
from repro.cloud import Cloud
from repro.faaskeeper import FaaSKeeperConfig, FaaSKeeperService
from repro.faaskeeper.heartbeat import HEARTBEAT_PERIOD_MS
from repro.faaskeeper.swarm import SessionSwarm, SwarmSpec

SMOKE = os.environ.get("FK_BENCH_SMOKE", "") not in ("", "0")
JSON_PATH = os.environ.get("FK_BENCH_JSON", "BENCH_swarm.json")
SESSIONS = int(os.environ.get("FK_SWARM_SESSIONS", "0")) or \
    (5_000 if SMOKE else 100_000)
SHARDS = 8
#: Sharded sweep p99 must beat flat by this factor (relaxed in smoke:
#: a 5k-session scan is too cheap for the slice win to reach 3x).
GATE_FACTOR = 2.0 if SESSIONS < 50_000 else 3.0
SEED = 4242


def _spec() -> SwarmSpec:
    return SwarmSpec(
        sessions=SESSIONS,
        registration_wave=max(1_000, SESSIONS // 20),
        watchers=min(200, SESSIONS // 10),
        watch_paths=10,
        writers=min(50, SESSIONS // 20),
        lock_contenders=6,
        graceful_closes=min(200, SESSIONS // 10),
        silent=min(200, SESSIONS // 10),
        seed=SEED,
    )


def _run_plane(shards: int):
    cloud = Cloud.aws(seed=SEED)
    service = FaaSKeeperService.deploy(cloud, FaaSKeeperConfig(
        user_store="mem", session_plane_shards=shards))
    started = cloud.now  # the crons start with the first registration
    report = SessionSwarm(cloud, service, _spec()).run()
    period = HEARTBEAT_PERIOD_MS
    report["sweeps_due"] = sum(
        int((cloud.now - started - task.offset_ms) // period)
        for task in service.heartbeat_tasks)
    report["heartbeat_evictions"] = service.metrics.get(
        "fk_heartbeat_evictions_total").value
    return report


def run():
    reports = {"flat": _run_plane(1), "sharded": _run_plane(SHARDS)}

    rows = []
    for label, report in reports.items():
        for family, stats in report["metrics"].items():
            rows.append([label, family, stats["n"],
                         round(stats["p50"], 2), round(stats["p99"], 2),
                         round(stats["p999"], 2)])
    print()
    print(render_table(
        ["plane", "metric", "n", "p50", "p99", "p999"], rows,
        title=f"Session swarm @ {SESSIONS} sessions "
              f"(flat vs {SHARDS} shards)"))

    payload = {
        "sessions": SESSIONS,
        "shards": SHARDS,
        "gate_factor": GATE_FACTOR,
        "flat": reports["flat"],
        "sharded": reports["sharded"],
    }
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {JSON_PATH}")
    return reports


def test_swarm(benchmark):
    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    flat, sharded = reports["flat"], reports["sharded"]

    for report in (flat, sharded):
        # The swarm sustained the population: everything registered is
        # live except the deliberate churn (graceful closes + evictions).
        spec = report["spec"]
        expected_live = (report["sessions_registered"]
                         - spec["graceful_closes"] - spec["silent"])
        assert report["live_after_registration"] >= spec["sessions"]
        assert report["live_at_end"] == expected_live
        # Every shard swept once per period; every silenced session was
        # evicted, once — by the heartbeat's count, not just the closed
        # clients'; and every metric family emits.
        assert report["sweeps"] == report["sweeps_due"]
        assert report["evicted"] == spec["silent"] \
            == report["heartbeat_evictions"]
        for family, stats in report["metrics"].items():
            assert stats["n"] > 0, f"{family} emitted no samples"
            assert stats["p50"] <= stats["p99"] <= stats["p999"]
        assert report["lock_grants"] == spec["lock_contenders"] \
            * spec["lock_rounds"]

    # The tentpole gate: partitioned sweeps beat the flat plane's p99.
    flat_p99 = flat["metrics"]["heartbeat_sweep_ms"]["p99"]
    sharded_p99 = sharded["metrics"]["heartbeat_sweep_ms"]["p99"]
    assert flat_p99 >= GATE_FACTOR * sharded_p99, \
        f"sweep p99 {flat_p99:.1f} -> {sharded_p99:.1f} ms: " \
        f"improvement below {GATE_FACTOR}x"
    # Sharding must not regress the other families' tails (generous
    # headroom: these paths are untouched by the sweep partitioning).
    for family in ("watch_fanout_ms", "eviction_lag_ms"):
        assert sharded["metrics"][family]["p99"] <= \
            2.0 * flat["metrics"][family]["p99"]
