"""Seeded transient-fault schedules across every registered backend.

The acceptance gate of the self-healing storage layer: with a 5 % fault
rate armed on every storage endpoint (throttles, timeouts, connection
resets, partial writes), the default retry policy must absorb everything
— every acknowledged write lands exactly once, no session dies a
storage death — on every backend the registry knows.  Schedules are a
pure function of (seed, config): any failure prints the
``FK_STORAGE_FAULT_SEED`` to replay it locally.
"""

import os
import random

import pytest

from repro.cloud import Cloud
from repro.faaskeeper import FaaSKeeperConfig, FaaSKeeperService
from repro.faaskeeper.chaos import ChaosMonkey, verify_exactly_once
from repro.faaskeeper.model import KeeperState
from repro.faaskeeper.retry import BREAKER_CLOSED
from repro.faaskeeper.userstore import registered_schemes

from ..helpers.visibility import ids_above_the_floor

SCHEMES = registered_schemes()
FAULT_RATE = 0.05


def fault_seeds():
    pinned = os.environ.get("FK_STORAGE_FAULT_SEED")
    if pinned:  # empty string = unset (CI passes '' when not pinning)
        return [int(pinned)]
    count = int(os.environ.get("FK_STORAGE_FAULT_SEEDS", "4"))
    return list(range(1, count + 1))


def run_scenario(seed, scheme, rate=FAULT_RATE, crash_stage=None,
                 outbox=False):
    """One seeded faulty workload; returns violations + bookkeeping.

    With ``crash_stage`` the faults are armed through :class:`ChaosMonkey`
    alongside seeded sandbox crashes — the crash x storage-fault
    composition the PR 6 chaos suite left open."""
    cloud = Cloud.aws(seed=seed)
    extra = {}
    if outbox:
        extra.update(outbox_enabled=True, commit_log_enabled=True)
    if crash_stage:
        extra.update(free_fn_retries=2)
    config = FaaSKeeperConfig(
        user_store=scheme,
        storage_fault_rate=0.0 if crash_stage else rate, **extra)
    service = FaaSKeeperService.deploy(cloud, config)
    if crash_stage:
        ChaosMonkey(service, seed=seed * 7919 + 13, stages=[crash_stage],
                    probability=0.3, budget_per_point=2,
                    storage_fault_rate=rate)
    rng = random.Random(seed)

    writer = service.connect()
    reader = service.connect()
    paths = ["/a", "/b", "/c"]
    expected = {}
    for path in paths + ["/doomed"]:
        writer.create(path, b"init")
        expected[path] = b"init"
    cloud.run(until=cloud.now + 60_000)

    futures = []
    for i in range(rng.randint(8, 14)):
        path = rng.choice(paths)
        data = f"{path[1:]}-{i}".encode()
        futures.append((path, data, writer.set_data_async(path, data)))
    delete_fut = writer.delete_async("/doomed")
    cloud.run(until=cloud.now + 240_000)

    violations = []
    acked = []
    for path, data, fut in futures:
        if not fut.done:
            violations.append(f"write {data!r} to {path} never completed")
            continue
        try:
            acked.append(fut.wait().txid)
        except Exception as exc:  # a fault leaked through the retry layer
            violations.append(
                f"write {data!r} to {path} failed: {exc!r} "
                "(a transient fault surfaced as session-fatal)")
            continue
        expected[path] = data
    if delete_fut.done:
        try:
            delete_fut.wait()
            expected["/doomed"] = None
        except Exception as exc:
            violations.append(f"delete of /doomed failed: {exc!r}")
    else:
        violations.append("delete of /doomed never completed")

    # Reads under faults must come back, and from the retry layer — never
    # as a raised storage error.
    for path in paths:
        data, _stat = reader.get_data(path)
        if expected[path] is not None and data != expected[path]:
            violations.append(
                f"read of {path} returned {data!r}, want {expected[path]!r}")

    cloud.run(until=cloud.now + 120_000)
    violations += verify_exactly_once(service, expected, acked)
    violations += ids_above_the_floor(service)

    # Zero session-fatal storage errors at the default retry policy.
    for client in (writer, reader):
        if client.state == KeeperState.LOST:
            violations.append(f"session {client.session_id} died LOST")
    # ... and no endpoint left shedding: after the drain every breaker of
    # both stores has settled CLOSED, with no retry budget exhausted.
    for store in (service.system_store, service.user_store):
        for region, breaker in store.breakers.items():
            if breaker.state != BREAKER_CLOSED:
                violations.append(
                    f"{store.label}@{region} breaker ended {breaker.state}")
    exhausted = service.metrics_snapshot()[
        "fk_storage_retry_exhausted_total"]["values"]
    if sum(exhausted.values()):
        violations.append(f"retries exhausted: {exhausted}")
    injected = sum(i.total_injected() for i in service.storage_injectors)
    return violations, injected, service


@pytest.mark.parametrize("scheme", SCHEMES)
def test_audits_pass_under_five_percent_faults(scheme):
    seeds = fault_seeds()
    injected_total = 0
    for seed in seeds:
        violations, injected, _svc = run_scenario(seed, scheme)
        injected_total += injected
        if violations:
            pytest.fail(
                f"[scheme={scheme} seed={seed} rate={FAULT_RATE}] "
                + "; ".join(violations)
                + f"\nreproduce locally: FK_STORAGE_FAULT_SEED={seed} "
                f"python -m pytest 'tests/integration/test_storage_faults.py"
                f"::test_audits_pass_under_five_percent_faults[{scheme}]'")
    # The matrix must actually inject faults, not pass vacuously.
    assert injected_total > 0, \
        f"no fault ever injected across seeds {seeds} on {scheme}"


def test_same_seed_replays_the_same_fault_schedule():
    """FK_STORAGE_FAULT_SEED replay UX: the schedule (and the whole run)
    is a pure function of (seed, config)."""
    def fingerprint(seed):
        violations, injected, service = run_scenario(seed, "hybrid")
        assert violations == []
        per_kind = {}
        for inj in service.storage_injectors:
            for kind, count in inj.injected.items():
                per_kind[kind] = per_kind.get(kind, 0) + count
        return injected, per_kind, service.cloud.now

    assert fingerprint(3) == fingerprint(3)


def test_different_seeds_draw_different_schedules():
    _v1, injected_a, _s1 = run_scenario(1, "mem")
    _v2, injected_b, _s2 = run_scenario(2, "mem")
    # Counts may coincide; the overall run trace must not.
    assert (_s1.cloud.now, injected_a) != (_s2.cloud.now, injected_b)


def test_crashes_and_faults_compose_with_outbox_audit():
    """Seeded sandbox crashes AND a seeded storage-fault schedule in the
    same run, with the transactional outbox on: the exactly-once and
    outbox-delivery audits must both hold (the composition the crash-only
    chaos suite couldn't exercise)."""
    for seed in fault_seeds():
        violations, injected, service = run_scenario(
            seed, "hybrid", rate=0.03, crash_stage="leader", outbox=True)
        if violations:
            pytest.fail(
                f"[composed seed={seed}] " + "; ".join(violations)
                + f"\nreproduce locally: FK_STORAGE_FAULT_SEED={seed} "
                "python -m pytest tests/integration/test_storage_faults.py"
                "::test_crashes_and_faults_compose_with_outbox_audit")
        assert service.config.outbox_enabled


def test_fault_metrics_surface_in_the_registry():
    violations, injected, service = run_scenario(5, "mem")
    assert violations == []
    snapshot = service.metrics_snapshot()
    gauge = snapshot["fk_storage_faults_injected"]["values"]
    assert sum(v for v in gauge.values()) == injected
    assert injected > 0
    retried = snapshot["fk_storage_retries_total"]["values"]
    assert sum(retried.values()) > 0  # the layer actually absorbed faults
