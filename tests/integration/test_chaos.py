"""Seeded crash-restart chaos suite (the CI `chaos` job).

Every scenario stands up a full deployment with the commit log enabled,
arms one pipeline stage with seeded random crashes
(:class:`~repro.faaskeeper.chaos.ChaosMonkey`), drives a randomized
write/watch workload to quiescence, and audits exactly-once end effects:
no acknowledged write lost, no write applied twice (version/txid
mismatches), every acknowledged txid visible in every region's
``replicated_tx`` watermark, every one-shot watch delivered exactly once
per instance, every epoch counter drained.

The matrix mirrors CI: leader shards {1, 4} x distributor {off,
on_commit} x crashed stage {leader, distributor, watch}, plus an
outbox leg that kills the event publisher (``outbox_*`` crash points)
and audits at-least-once delivery with per-path txid order.  Seeds come
from ``FK_CHAOS_SEEDS`` (how many, default 12; CI runs 50+) or
``FK_CHAOS_SEED`` (exactly one — the reproduce-a-CI-failure knob; any
failure message prints the seed to export).

A second axis sweeps the user-store backend: the exactly-once audit is a
property of the pipeline, so it must hold over every registered store
(mem, redis, s3, hybrid), not just the default.  CI's ``chaos-backends``
matrix leg pins one backend per job via ``FK_CHAOS_BACKEND``.
"""

import os
import random

import pytest

from repro.cloud import Cloud
from repro.faaskeeper import FaaSKeeperConfig, FaaSKeeperService
from repro.faaskeeper.chaos import (
    CRASH_POINTS,
    ChaosMonkey,
    verify_exactly_once,
)

CONFIGS = {
    "s1": dict(leader_shards=1),
    "s4": dict(leader_shards=4),
    "s1-dist": dict(leader_shards=1, distributor_enabled=True,
                    ack_policy="on_commit",
                    regions=["us-east-1", "eu-west-1"]),
    "s4-dist": dict(leader_shards=4, distributor_enabled=True,
                    ack_policy="on_commit",
                    regions=["us-east-1", "eu-west-1"]),
    "s1-outbox": dict(leader_shards=1, outbox_enabled=True,
                      outbox_publish_ms=1_000.0),
}

#: (config name, crashed stage): distributor crashes need a distributor,
#: outbox crashes a publisher.
MATRIX = [
    ("s1", "leader"), ("s1", "watch"),
    ("s4", "leader"), ("s4", "watch"),
    ("s1-dist", "leader"), ("s1-dist", "distributor"), ("s1-dist", "watch"),
    ("s4-dist", "leader"), ("s4-dist", "distributor"), ("s4-dist", "watch"),
    ("s1-outbox", "leader"), ("s1-outbox", "outbox"),
]


#: The backend sweep: every registered scheme that deploys without extra
#: infrastructure (dynamodb is the s1/s4 legs' implicit default path).
BACKENDS = ["mem", "redis", "s3", "hybrid"]


def chaos_seeds():
    pinned = os.environ.get("FK_CHAOS_SEED")
    if pinned:  # empty string = unset (CI passes '' when not pinning)
        return [int(pinned)]
    count = int(os.environ.get("FK_CHAOS_SEEDS", "12"))
    return list(range(1, count + 1))


def chaos_backends():
    pinned = os.environ.get("FK_CHAOS_BACKEND")
    if pinned:  # the CI matrix leg runs one backend per job
        return [pinned]
    return BACKENDS


def run_scenario(seed, config_name, stage, backend=None):
    """One seeded crash-restart scenario; returns violation strings."""
    cloud = Cloud.aws(seed=seed)
    kwargs = dict(CONFIGS[config_name])
    if backend is not None:
        kwargs["user_store"] = backend
    config = FaaSKeeperConfig(commit_log_enabled=True, free_fn_retries=2,
                              **kwargs)
    service = FaaSKeeperService.deploy(cloud, config)
    monkey = ChaosMonkey(service, seed=seed * 7919 + 13, stages=[stage],
                         probability=0.4, budget_per_point=2)
    rng = random.Random(seed)

    writer = service.connect()
    watcher = service.connect()
    paths = ["/a", "/b", "/c"]
    expected = {}
    for path in paths + ["/doomed"]:
        writer.create(path, b"init")
        expected[path] = b"init"
    # on_commit acks run ahead of replication: let the creates land in
    # every region before the watcher reads them.
    cloud.run(until=cloud.now + 60_000)

    # One-shot watches, armed before the write traffic: each instance
    # must fire exactly once, crash-retried fan-outs notwithstanding.
    watch_counts = {}
    for path in ("/a", "/b"):
        slot = {"fired": 0}
        watch_counts[path] = slot
        watcher.get_data(
            path, watch=lambda _ev, s=slot: s.__setitem__(
                "fired", s["fired"] + 1))

    futures = []
    for i in range(rng.randint(8, 14)):
        path = rng.choice(paths)
        data = f"{path[1:]}-{i}".encode()
        futures.append((path, data, writer.set_data_async(path, data)))
    delete_fut = writer.delete_async("/doomed")

    cloud.run(until=cloud.now + 240_000)

    violations = []
    for path, data, fut in futures:
        if not fut.done:
            violations.append(f"write {data!r} to {path} never completed")
            continue
        fut.wait()  # raises only on a dropped request: a real violation
        expected[path] = data  # session FIFO: last submitted wins (Z2)
    if delete_fut.done:
        delete_fut.wait()
        expected["/doomed"] = None
    else:
        violations.append("delete of /doomed never completed")
    acked = [fut.wait().txid for _p, _d, fut in futures if fut.done]

    cloud.run(until=cloud.now + 120_000)  # drain fan-outs + replication

    violations += verify_exactly_once(service, expected, acked)
    written = {path for path, _d, _f in futures}
    for path, slot in watch_counts.items():
        want = 1 if path in written else 0  # one-shot: exactly once, or never
        if slot["fired"] != want:
            violations.append(
                f"watch on {path} fired {slot['fired']} times (want {want})")
    # Every injected crash must have cost the sandbox its warm state.
    # (RetryBatch redeliveries also restart, so >= rather than ==.)
    if monkey.restarts < len(monkey.crashes):
        violations.append(
            f"{len(monkey.crashes)} crashes but only "
            f"{monkey.restarts} restarts")
    return violations, monkey, cloud, service, expected


@pytest.mark.parametrize("config_name,stage", MATRIX,
                         ids=[f"{c}-{s}" for c, s in MATRIX])
def test_exactly_once_under_seeded_crashes(config_name, stage):
    seeds = chaos_seeds()
    crashes_seen = 0
    for seed in seeds:
        violations, monkey, _cloud, _svc, _exp = run_scenario(
            seed, config_name, stage)
        crashes_seen += len(monkey.crashes)
        if violations:
            pytest.fail(
                f"[config={config_name} stage={stage} seed={seed}] "
                + "; ".join(violations)
                + f"\ncrash schedule: {monkey.crashes}"
                + f"\nreproduce locally: FK_CHAOS_SEED={seed} "
                f"python -m pytest "
                f"'tests/integration/test_chaos.py::"
                f"test_exactly_once_under_seeded_crashes"
                f"[{config_name}-{stage}]'")
    # The suite must actually exercise crashes, not pass vacuously.
    assert crashes_seen > 0, \
        f"no crash ever triggered across seeds {seeds[:3]}..{seeds[-1:]}"


@pytest.mark.parametrize("backend", chaos_backends())
def test_exactly_once_across_user_store_backends(backend):
    """The backend sweep leg: one distributor-crash scenario per user
    store.  Depth (all stages, all shard counts) lives in the main
    matrix; this axis proves the audit is backend-independent."""
    seeds = chaos_seeds()[:4]
    crashes_seen = 0
    for seed in seeds:
        violations, monkey, _cloud, _svc, _exp = run_scenario(
            seed, "s1-dist", "distributor", backend=backend)
        crashes_seen += len(monkey.crashes)
        if violations:
            pytest.fail(
                f"[backend={backend} seed={seed}] " + "; ".join(violations)
                + f"\ncrash schedule: {monkey.crashes}"
                + f"\nreproduce locally: FK_CHAOS_SEED={seed} "
                f"FK_CHAOS_BACKEND={backend} python -m pytest "
                f"'tests/integration/test_chaos.py::"
                f"test_exactly_once_across_user_store_backends[{backend}]'")
    assert crashes_seen > 0, \
        f"no crash ever triggered across seeds {seeds} on {backend}"


def test_region_wipe_after_chaos_recovers_from_snapshot():
    """Disaster drill on top of a chaos run: crash the distributor during
    the workload, snapshot + compact, wipe the secondary region, cold
    recover, and audit the rebuilt replica like any other region."""
    seeds = chaos_seeds()[:3]
    for seed in seeds:
        violations, monkey, cloud, service, expected = run_scenario(
            seed, "s1-dist", "distributor")
        assert not violations, f"[seed={seed}] pre-wipe: {violations}"
        cloud.run_process(service.snapshots.take_snapshot(service.system_ctx))
        cloud.run_process(service.snapshots.compact(service.system_ctx))
        region = "eu-west-1"
        service.user_store.wipe_region(region)
        cloud.run_process(service.snapshots.recover_region(
            service.system_ctx, region, cold=True))
        for path, final in expected.items():
            image = service.user_store.peek(region, path)
            if final is None:
                assert image is None, \
                    f"[seed={seed}] {path}@{region} resurrected after recovery"
            else:
                assert image is not None and image.get("data") == final, \
                    (f"[seed={seed}] {path}@{region} lost after recovery; "
                     f"reproduce: FK_CHAOS_SEED={seed}")


#: (config, crashed stage, seed) -> (crash log as ``fn:point:invocation``,
#: budget left per (fn, point)), recorded on the commit before the harness
#: read ``service.stages`` — when it armed each stage kind by hand.
PINNED_SCHEDULES = {
    ("s4-dist", "leader", 3): (
        "fk-leader-3:leader_entry:2 fk-leader-2:leader_after_log:1 "
        "fk-leader-2:leader_entry:2 fk-leader-2:leader_entry:3 "
        "fk-leader-2:leader_after_log:4 fk-leader-2:leader_mid_batch:5 "
        "fk-leader-3:leader_after_log:4 fk-leader-1:leader_entry:2 "
        "fk-leader-3:leader_entry:5 fk-leader-1:leader_entry:3 "
        "fk-leader-3:leader_mid_batch:6 fk-leader-3:leader_mid_batch:8 "
        "fk-leader-3:leader_after_log:9 fk-leader-1:leader_mid_batch:5",
        {"fk-leader": (2, 2, 2), "fk-leader-1": (0, 1, 2),
         "fk-leader-2": (0, 1, 0), "fk-leader-3": (0, 0, 0)}),
    ("s4-dist", "distributor", 3): (
        "fk-distributor:dist_before_visible:2 "
        "fk-distributor:dist_after_watch_stage:4 "
        "fk-distributor-eu-west-1:dist_before_visible:1 "
        "fk-distributor:dist_entry:5 fk-distributor-eu-west-1:dist_entry:2 "
        "fk-distributor:dist_entry:6 fk-distributor:dist_before_visible:7 "
        "fk-distributor-eu-west-1:dist_before_visible:3 "
        "fk-distributor:dist_after_watch_stage:8 "
        "fk-distributor-eu-west-1:dist_entry:4",
        {"fk-distributor": (0, 0, 0),
         "fk-distributor-eu-west-1": (0, 2, 0)}),
    ("s4-dist", "watch", 2): (
        "fk-watch:watch_mid_fanout:1 fk-watch:watch_entry:3",
        {"fk-watch": (0, 0)}),
    ("s1-outbox", "outbox", 3): (
        "fk-outbox:outbox_after_sink:1 fk-outbox:outbox_after_sink:2 "
        "fk-outbox:outbox_entry:3 fk-outbox:outbox_entry:4 "
        "fk-outbox:outbox_mid_drain:5 fk-outbox:outbox_mid_drain:6",
        {"fk-outbox": (0, 0, 0)}),
}


@pytest.mark.parametrize("config_name,stage,seed", list(PINNED_SCHEDULES),
                         ids=[f"{c}-{s}" for c, s, _ in PINNED_SCHEDULES])
def test_arming_off_the_stage_list_keeps_the_crash_schedule(
        config_name, stage, seed, monkeypatch):
    """The harness arms ``stage.kind -> CRASH_POINTS`` over
    ``service.stages``; for a fixed seed that must pick the same
    functions, points, budgets and — the RNG being shared — the same crash
    schedule as the per-kind arming it replaced."""
    for switch in ("FK_FORCE_OUTBOX", "FK_STORAGE_FAULTS"):
        monkeypatch.delenv(switch, raising=False)  # the pins are default runs
    crashes, budgets = PINNED_SCHEDULES[config_name, stage, seed]
    violations, monkey, _cloud, _svc, _exp = run_scenario(
        seed, config_name, stage)
    assert not violations
    assert " ".join(f"{fn}:{point}:{inv}"
                    for fn, point, inv in monkey.crashes) == crashes
    assert monkey._budget == {
        (fn, point): left for fn, lefts in budgets.items()
        for point, left in zip(CRASH_POINTS[stage], lefts)}


def test_chaos_seed_env_pins_single_seed(monkeypatch):
    monkeypatch.setenv("FK_CHAOS_SEED", "42")
    assert chaos_seeds() == [42]
    monkeypatch.setenv("FK_CHAOS_SEED", "")  # CI passes '' when not pinning
    monkeypatch.setenv("FK_CHAOS_SEEDS", "3")
    assert chaos_seeds() == [1, 2, 3]
