"""Cold-start recovery latency: fuzzy snapshot + suffix vs full-log replay.

ZooKeeper bounds crash recovery with fuzzy snapshots: a restarting server
loads the newest snapshot and replays only the log suffix behind it.  The
FaaSKeeper port does the same for a lost user-store replica — the commit
log (``commit_log_enabled``) makes full-log replay *possible*, and
:meth:`SnapshotManager.take_snapshot` + :meth:`~SnapshotManager.compact`
make it *cheap*: recovery work becomes ``O(paths + suffix)`` instead of
``O(total writes)``.

This bench holds the path population fixed (so the snapshot size is a
constant) while the log grows, wipes the primary region's replica, and
measures cold recovery two ways per log length:

* **full replay** — no snapshot taken; every logged transaction replays.
* **snapshot** — snapshot + compaction before the last ``SUFFIX`` writes;
  recovery loads the per-path checkpoint and replays only the suffix.

Emits machine-readable ``BENCH_recovery.json`` (uploaded as a CI
artifact, next to ``BENCH_write_latency.json``).

Acceptance gates: at the largest log the snapshot path must beat full
replay; full-replay time must grow with the log while the snapshot path
stays bounded by the (constant) suffix, replaying exactly ``SUFFIX``
records at every log length.

``FK_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs;
``FK_BENCH_JSON`` overrides the JSON output path.
"""

import json
import os

from repro.analysis import render_table
from repro.cloud import Cloud
from repro.faaskeeper import FaaSKeeperConfig, FaaSKeeperService

SMOKE = os.environ.get("FK_BENCH_SMOKE", "") not in ("", "0")
JSON_PATH = os.environ.get("FK_BENCH_JSON", "BENCH_recovery.json")
PATHS = 8                                  # fixed: snapshot size constant
SUFFIX = 6                                 # writes left behind the snapshot
LOG_LENGTHS = (16, 48) if SMOKE else (16, 64, 160)
SEED = 2024


def _measure(n_writes, use_snapshot):
    """Deploy, write ``n_writes`` updates over ``PATHS`` paths, wipe the
    primary replica, cold-recover it; returns (virtual ms, recovery stats)."""
    assert n_writes > SUFFIX
    cloud = Cloud.aws(seed=SEED)
    service = FaaSKeeperService.deploy(
        cloud, FaaSKeeperConfig(commit_log_enabled=True))
    client = service.connect()
    paths = [f"/n{i}" for i in range(PATHS)]
    for path in paths:
        client.create(path, b"init")
    for i in range(n_writes - SUFFIX):
        client.set_data(paths[i % PATHS], f"v{i}".encode())
    if use_snapshot:
        cloud.run_process(service.snapshots.take_snapshot(service.system_ctx))
        cloud.run_process(service.snapshots.compact(service.system_ctx))
    for i in range(SUFFIX):
        client.set_data(paths[i % PATHS], f"s{i}".encode())

    region = service.config.primary_region
    expected = {p: service.user_store.peek(region, p) for p in paths}
    service.user_store.wipe_region(region)
    start = cloud.now
    stats = cloud.run_process(service.snapshots.recover_region(
        service.system_ctx, region, cold=True))
    elapsed = cloud.now - start
    for path in paths:  # recovery must actually reconstruct the replica
        got = service.user_store.peek(region, path)
        assert got is not None and got.get("data") == \
            expected[path].get("data"), path
    return elapsed, stats


def run():
    out = {}
    rows = []
    for n in LOG_LENGTHS:
        full_ms, full_stats = _measure(n, use_snapshot=False)
        snap_ms, snap_stats = _measure(n, use_snapshot=True)
        out[n] = {
            "full_replay_ms": round(full_ms, 3),
            "snapshot_ms": round(snap_ms, 3),
            "full_replayed": full_stats["replayed"],
            "snapshot_loaded": snap_stats["loaded"],
            "snapshot_replayed": snap_stats["replayed"],
        }
        rows.append([n, f"{full_ms:.0f}", full_stats["replayed"],
                     f"{snap_ms:.0f}",
                     f"{snap_stats['loaded']}+{snap_stats['replayed']}",
                     f"{100 * (1 - snap_ms / full_ms):.0f}%"])
    print()
    print(render_table(
        ["log len", "replay ms", "replayed", "snapshot ms",
         "loaded+suffix", "cut"],
        rows,
        title=f"Cold recovery: snapshot+suffix vs full replay, "
              f"{PATHS} paths, suffix={SUFFIX}"))
    payload = {
        "bench": "bench_recovery",
        "paths": PATHS,
        "suffix": SUFFIX,
        "series": {f"log{n}": series for n, series in out.items()},
    }
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {JSON_PATH}")
    return out


def test_snapshot_bounds_cold_recovery(benchmark):
    out = benchmark.pedantic(run, rounds=1, iterations=1)
    longest, shortest = max(LOG_LENGTHS), min(LOG_LENGTHS)
    # Snapshot recovery beats replaying the whole log once the log is
    # meaningfully longer than the path population.
    assert out[longest]["snapshot_ms"] < out[longest]["full_replay_ms"], out
    # Full replay is O(total writes): it replays every logged txid and its
    # cost grows with the log.
    assert out[longest]["full_replayed"] > out[shortest]["full_replayed"]
    assert out[longest]["full_replay_ms"] > out[shortest]["full_replay_ms"]
    for n in LOG_LENGTHS:
        # The snapshot path is O(paths + suffix): a constant-size load plus
        # exactly the SUFFIX records behind the snapshot, however long the
        # log was before compaction.
        assert out[n]["snapshot_replayed"] == SUFFIX, out
        assert out[n]["snapshot_loaded"] >= PATHS, out
    # ...so its recovery time is bounded: growing the log 10x must not
    # grow snapshot recovery more than the suffix jitter (50%).
    assert out[longest]["snapshot_ms"] <= 1.5 * out[shortest]["snapshot_ms"], out


if __name__ == "__main__":
    run()
