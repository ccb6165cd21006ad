"""The deployment is declared once: ``service.stages``.

Every deployed function is a row of the stage list, and whatever used to
enumerate stages by hand — per-function metrics, the scale-to-zero
start/stop of the crons, the function side of the cost categories — is
read off it.  These tests hold the list to that: it is complete, every
row is wired, the cost categories add up to the meter, and a stage added
with one ``_deploy_stage`` call shows up everywhere without touching
another line.  (The chaos harness's side of the same list is pinned in
``tests/integration/test_chaos.py``.)  Plus the property test of
:class:`~repro.faaskeeper.distributor.GateBoard`, the one ordered gate
behind both the session fence and the watch gate.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faaskeeper.distributor import GateBoard
from repro.sim.kernel import Environment
from .conftest import make_service

CONFIGS = {
    "default": dict(),
    "hybrid": dict(user_store="hybrid"),
    "durable": dict(commit_log_enabled=True, outbox_enabled=True,
                    snapshot_auto_ms=5_000.0),
    "scaled": dict(leader_shards=4, distributor_enabled=True,
                   ack_policy="on_commit",
                   regions=["us-east-1", "eu-west-1"]),
    "plane8": dict(session_plane_shards=8),
}
#: ``s3`` / ``dynamodb`` are per-service views of the storage dollars that
#: ``system_store`` / ``user_store`` already count.
OVERLAPPING = {"client_cache_hits", "client_cache_misses", "s3", "dynamodb"}


def _drive(cloud, service):
    """A little of everything: writes over several top-level paths (so
    every leader shard works), a watch fan-out, reads, and enough virtual
    time for every cron — gc included — to fire."""
    client = service.connect()
    for i in range(6):
        client.create(f"/n{i}", b"x" * 64)
    client.get_data("/n0", watch=lambda _event: None)
    client.set_data("/n0", b"y" * 2048)
    cloud.run(until=cloud.now + 310_000)
    return client


# ---------------------------------------------------------------- the list
@pytest.mark.parametrize("name", list(CONFIGS))
def test_stage_list_is_complete_and_every_row_is_wired(name):
    cloud, service = make_service(seed=23, **CONFIGS[name])
    assert {id(s.fn) for s in service.stages} == \
        {id(fn) for fn in cloud.runtime.functions.values()}
    assert [s.name for s in service.stages] == list(cloud.runtime.functions)
    assert [s.queue for s in service.stages if s.kind == "leader"] == \
        service.leader_queues

    crons = [s.task for s in service.stages if s.task is not None]
    assert len(crons) >= len(service.heartbeat_tasks) + 1   # sweeps + gc
    assert not any(task.enabled for task in crons)          # zero sessions

    client = _drive(cloud, service)
    assert all(task.enabled for task in crons)
    for stage in service.stages:
        stage.fn.on_segment("probe", 1.0)   # what fctx.record() calls
    snap = service.metrics_snapshot()
    for stage in service.stages:
        assert snap["fk_fn_invocations"]["values"][
            f'fn="{stage.name}"'] == stage.fn.invocations
        assert snap["fk_stage_segment_ms"]["values"][
            f'fn="{stage.name}",segment="probe"']["count"] == 1
    assert all(task.fired >= 1 for task in crons)

    # Scale to zero and back inside one period: every cron stops, restarts,
    # and runs ONE loop — a loop parked across the stop must retire, not
    # fire beside its successor.
    client.close()
    assert not any(task.enabled for task in crons)
    cloud.run(until=cloud.now + 2_000)
    service.connect()
    assert all(task.enabled for task in crons)
    before = [task.fired for task in crons]
    window = 5 * 60_000 + 1_000
    cloud.run(until=cloud.now + window)
    for task, fired in zip(crons, before):
        most = (window - task.offset_ms) // task.period_ms
        assert 1 <= task.fired - fired <= most, task.fn.spec.name


@pytest.mark.parametrize("name", ["default", "hybrid", "durable", "scaled"])
def test_cost_categories_add_up_to_the_meter(name):
    """``queue + system_store + user_store + every stage kind`` is the
    meter's total: no deployed function's dollars are in no category."""
    cloud, service = make_service(seed=7, **CONFIGS[name])
    _drive(cloud, service)
    got = service.cost_breakdown()
    assert got["gc"] > 0 and got["heartbeat"] > 0
    if name == "durable":
        assert got["snapshot"] > 0 and got["outbox"] > 0
    if name == "scaled":
        by = cloud.meter.by_service()
        assert got["leader"] == pytest.approx(sum(
            by[f"fn:{fn.spec.name}"] for fn in service.leader_fns), rel=1e-12)
        assert got["distributor"] > by["fn:fk-distributor"] > 0
    assert sum(v for k, v in got.items() if k not in OVERLAPPING) == \
        pytest.approx(cloud.meter.total, abs=1e-12)


class _Tick:
    """A no-op cron function: one recorded segment, one billed millisecond."""

    def handler(self, fctx, payload):
        yield fctx.env.timeout(1.0)
        fctx.record("tick", 1.0)


def test_adding_a_stage_is_one_declaration():
    cloud, service = make_service(seed=5)
    stage = service._deploy_stage("fk-tick", "tick", _Tick(),
                                  period_ms=10_000.0)
    assert service.stages[-1] is stage and not stage.task.enabled
    client = service.connect()
    assert stage.task.enabled
    cloud.run(until=cloud.now + 35_000)
    assert stage.task.fired == 3
    snap = service.metrics_snapshot()
    assert snap["fk_fn_invocations"]["values"]['fn="fk-tick"'] == 3
    assert snap["fk_stage_segment_ms"]["values"][
        'fn="fk-tick",segment="tick"']["count"] == 3
    got = service.cost_breakdown()
    assert list(got)[-1] == "tick"
    assert got["tick"] == cloud.meter.by_service()["fn:fk-tick"] > 0
    assert snap["fk_cost_dollars"]["values"]['category="tick"'] > 0
    assert sum(v for k, v in got.items() if k not in OVERLAPPING) == \
        pytest.approx(cloud.meter.total, abs=1e-12)
    client.close()
    assert not stage.task.enabled

    # deployed while a session is open: the cron is left running
    service.connect()
    late = service._deploy_stage("fk-tock", "tick", _Tick(), period_ms=10_000.0)
    assert late.task.enabled


# ---------------------------------------------------------------- the gate
_KEYS = st.sampled_from(["a", "b", 3])
_OPS = st.lists(
    st.tuples(st.sampled_from(["wait", "advance"]), _KEYS, st.integers(0, 6)),
    min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_gate_wakes_a_waiter_iff_its_mark_is_reached(ops):
    """Interleaved ``advance``/``wait`` on several keys: at every step the
    resumed waiters are exactly those whose ``(key, n)`` has ``mark[key] >=
    n`` — none earlier, none forgotten — marks never regress, and no woken
    waiter is left in the waiter map."""
    env = Environment()
    board = GateBoard(env)
    model = {}                      # key -> highest mark advanced to
    waiters = []                    # (key, n) per started waiter
    resumed = set()

    def waiter(index, key, n):
        yield from board.wait(key, n)
        resumed.add(index)

    for op, key, n in ops:
        if op == "wait":
            env.process(waiter(len(waiters), key, n))
            waiters.append((key, n))
        else:
            board.advance(key, n)
            model[key] = max(model.get(key, 0), n)
        env.run()
        assert resumed == {i for i, (k, wanted) in enumerate(waiters)
                           if model.get(k, 0) >= wanted}
        assert all(board.mark(k) == mark for k, mark in model.items())
        for k, parked in board._waiters.items():
            assert parked, "empty waiter list left behind"
            assert all(wanted > board.mark(k) and not event.triggered
                       for wanted, event in parked)
        assert sum(map(len, board._waiters.values())) == \
            len(waiters) - len(resumed)

