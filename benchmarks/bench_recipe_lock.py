"""Recipe lock vs. the paper's timed lock under single-resource contention.

``recipes.Lock`` is the herd-free ZooKeeper queue lock built on the public
client API: ephemeral sequence nodes + a predecessor watch, granting in
FIFO order with at most one waiter woken per release.  The paper's
:class:`~repro.primitives.TimedLock` (Figure 6b) is a storage-level
try-lock: a conditional write that contenders must spin on, with no queue
and no wake-ups — cheap per operation, but unfair under contention and
wasteful in retries.

This bench runs both against one contended resource (N clients, fixed
critical-section hold) and reports throughput (handoffs/s), fairness
(Jain's index over per-client acquisition counts), retry waste and the
recipe lock's wake-up discipline, emitting machine-readable
``BENCH_recipe_lock.json`` (uploaded as a CI artifact, extending the perf
trajectory started by the distributor bench).

Acceptance gates (ISSUE 5): the recipe lock loses no wakeups (every
acquisition attempt inside the window is eventually granted) and wakes at
most one waiter per release; its FIFO grant order keeps Jain fairness
near 1.

``FK_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs;
``FK_BENCH_JSON`` overrides the JSON output path.
"""

import json
import os

from repro.analysis import render_table
from repro.cloud import Cloud, OpContext
from repro.faaskeeper import FaaSKeeperConfig, FaaSKeeperService, recipes
from repro.primitives import TimedLock
from repro.sim.kernel import AllOf

SMOKE = os.environ.get("FK_BENCH_SMOKE", "") not in ("", "0")
JSON_PATH = os.environ.get("FK_BENCH_JSON", "BENCH_recipe_lock.json")
N_CLIENTS = 6
HOLD_MS = 20.0
WINDOW_MS = 20_000.0 if SMOKE else 120_000.0
#: A waiter stuck longer than this while the window is still open counts
#: as a lost wakeup (far beyond the worst-case full-queue rotation).
LOST_WAKEUP_TIMEOUT_MS = 60_000.0
SEED = 2024


def jain_index(counts):
    """Jain's fairness index: 1.0 = perfectly even shares."""
    values = [float(c) for c in counts]
    total = sum(values)
    if total == 0:
        return 0.0
    return total * total / (len(values) * sum(v * v for v in values))


def _run_recipe_lock():
    cloud = Cloud.aws(seed=SEED)
    service = FaaSKeeperService.deploy(cloud, FaaSKeeperConfig())
    env = cloud.env
    end = cloud.now + WINDOW_MS
    counts = {f"w{i}": 0 for i in range(N_CLIENTS)}
    lost = {"n": 0}
    locks = []

    def worker(name):
        client = yield from service.co_connect()
        lock = recipes.Lock(client, "/locks/hot", identifier=name)
        locks.append(lock)
        while env.now < end:
            ok = yield from lock.co_acquire(
                timeout_ms=LOST_WAKEUP_TIMEOUT_MS)
            if not ok:
                if env.now < end:
                    lost["n"] += 1
                continue
            counts[name] += 1
            yield HOLD_MS
            yield from lock.co_release()

    procs = [env.process(worker(f"w{i}")) for i in range(N_CLIENTS)]
    cloud.run(until=AllOf(env, procs))
    acquisitions = sum(counts.values())
    wake_ups = sum(lock.wake_ups for lock in locks)
    elapsed_s = (cloud.now if cloud.now > WINDOW_MS else WINDOW_MS) / 1000.0
    return {
        "acquisitions": acquisitions,
        "per_client": counts,
        "throughput_per_s": acquisitions / elapsed_s,
        "jain_fairness": jain_index(counts.values()),
        "wake_ups": wake_ups,
        "wakeups_per_release": wake_ups / max(acquisitions, 1),
        "lost_wakeups": lost["n"],
        "cost_usd": cloud.meter.total,
    }


def _run_timed_lock():
    """Figure 6b's locked protocol, pointed at ONE contended key."""
    cloud = Cloud.aws(seed=SEED)
    kv = cloud.kv()
    kv.create_table("t", capacity_per_s=cloud.profile.kv_capacity_per_s)
    cloud.run_process(kv.put_item(OpContext(), "t", "hot", {"v": 0}))
    lock = TimedLock(kv, "t", max_hold_ms=30_000)
    env = cloud.env
    end = cloud.now + WINDOW_MS
    counts = {f"w{i}": 0 for i in range(N_CLIENTS)}
    retries = {"n": 0}

    def worker(name):
        ctx = OpContext()
        while env.now < end:
            handle = yield from lock.acquire(ctx, "hot")
            if handle is None:
                # Try-lock semantics: no queue, no wake-up — spin.
                retries["n"] += 1
                yield 10.0
                continue
            counts[name] += 1
            yield HOLD_MS
            yield from lock.release(ctx, handle)

    procs = [env.process(worker(f"w{i}")) for i in range(N_CLIENTS)]
    cloud.run(until=AllOf(env, procs))
    acquisitions = sum(counts.values())
    elapsed_s = (cloud.now if cloud.now > WINDOW_MS else WINDOW_MS) / 1000.0
    return {
        "acquisitions": acquisitions,
        "per_client": counts,
        "throughput_per_s": acquisitions / elapsed_s,
        "jain_fairness": jain_index(counts.values()),
        "failed_tries": retries["n"],
        "cost_usd": cloud.meter.total,
    }


def run():
    recipe = _run_recipe_lock()
    timed = _run_timed_lock()
    print()
    print(render_table(
        ["lock", "handoffs/s", "Jain fairness", "retry waste",
         "wake-ups/release", "lost wakeups"],
        [
            ["recipe (FIFO queue)", f"{recipe['throughput_per_s']:.2f}",
             f"{recipe['jain_fairness']:.3f}", "0",
             f"{recipe['wakeups_per_release']:.2f}",
             str(recipe["lost_wakeups"])],
            ["timed (try-lock)", f"{timed['throughput_per_s']:.2f}",
             f"{timed['jain_fairness']:.3f}", str(timed["failed_tries"]),
             "n/a", "n/a"],
        ],
        title=f"Lock contention: {N_CLIENTS} clients, one resource, "
              f"{WINDOW_MS / 1000:.0f}s window"))
    payload = {
        "bench": "bench_recipe_lock",
        "clients": N_CLIENTS,
        "hold_ms": HOLD_MS,
        "window_ms": WINDOW_MS,
        "recipe_lock": {k: v for k, v in recipe.items() if k != "per_client"},
        "timed_lock": {k: v for k, v in timed.items() if k != "per_client"},
    }
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {JSON_PATH}")
    return recipe, timed


def test_recipe_lock_contention(benchmark):
    recipe, timed = benchmark.pedantic(run, rounds=1, iterations=1)
    # Liveness: the lock genuinely circulates under contention.
    assert recipe["acquisitions"] >= N_CLIENTS
    assert all(c > 0 for c in recipe["per_client"].values())
    # No lost wakeups: nobody starved waiting on a free lock.
    assert recipe["lost_wakeups"] == 0
    # Herd-free: at most one waiter woken per release.
    assert recipe["wake_ups"] <= recipe["acquisitions"]
    # FIFO grants keep shares even.
    assert recipe["jain_fairness"] >= 0.9
    # The storage try-lock burns conditional writes on contention; the
    # queue lock burns none (that is the recipe's efficiency story even
    # though each handoff crosses the full coordination pipeline).
    assert timed["failed_tries"] > 0


if __name__ == "__main__":
    run()
