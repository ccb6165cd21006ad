"""Sharded session plane: partitioned heartbeat sweeps and batched
registration.

``session_plane_shards=1`` (the default) is the paper's flat plane: one
sweep function over the whole session table.  The sharded topology keeps
every protocol (ephemeral-first eviction per shard, guarded watch removal)
and only splits the *sweeps* over the session table; each shard sweeps
once per period.
"""

import pytest

from repro.cloud import Cloud
from repro.cloud.kvstore import scan_segment_of
from repro.faaskeeper import FaaSKeeperConfig
from repro.faaskeeper.heartbeat import HEARTBEAT_PERIOD_MS
from repro.faaskeeper.layout import SYSTEM_SESSIONS, SYSTEM_WATCHES
from repro.faaskeeper.swarm import SessionSwarm, SwarmSpec
from .conftest import make_service


def test_config_validates_session_plane_shards():
    with pytest.raises(ValueError):
        FaaSKeeperConfig(session_plane_shards=0)
    assert FaaSKeeperConfig().session_plane_shards == 1


# ------------------------------------------------------------ topology
def test_flat_plane_deploys_legacy_topology():
    _cloud, service = make_service(seed=93)
    assert [f.spec.name for f in service.heartbeat_fns] == ["fk-heartbeat"]
    assert [t.offset_ms for t in service.heartbeat_tasks] == [0.0]


def test_sharded_plane_deploys_one_sweep_per_shard():
    _cloud, service = make_service(seed=94, session_plane_shards=4)
    assert [f.spec.name for f in service.heartbeat_fns] == [
        "fk-heartbeat", "fk-heartbeat-1", "fk-heartbeat-2", "fk-heartbeat-3"]
    logics = [s.logic for s in service.stages if s.kind == "heartbeat"]
    assert [logic.shard for logic in logics] == [0, 1, 2, 3]
    assert all(logic.shards == 4 for logic in logics)
    # the shards split the sweep, not the watch registry
    assert [name for name in service.system_store.tables
            if name.startswith(SYSTEM_WATCHES)] == [SYSTEM_WATCHES]
    # shard sweeps are phase-staggered; shard 0 keeps the flat schedule
    offsets = [t.offset_ms for t in service.heartbeat_tasks]
    assert offsets[0] == 0.0
    assert offsets == sorted(offsets) and len(set(offsets)) == 4


# ------------------------------------------------------------ behaviour
def test_sharded_sweeps_cover_every_session_and_evict_dead_ones():
    cloud, service = make_service(seed=95, session_plane_shards=4)
    clients = service.connect_many(40)
    dead = [c for i, c in enumerate(clients) if i % 4 == 0]
    for c in dead:
        c.alive = False
    cloud.run(until=cloud.now + 3 * 60_000)
    for c in dead:
        assert c.closed and c.evicted and c.closed_at is not None
    live = [c for c in clients if c not in dead]
    assert all(not c.closed for c in live)
    # every shard swept at least once, and only its own slice
    snap = service.metrics_snapshot()
    per_shard = snap["fk_heartbeat_shard_sweeps_total"]["values"]
    assert set(per_shard) == {f'shard="{i}"' for i in range(4)}
    assert all(v >= 1 for v in per_shard.values())


def test_sharded_and_flat_plane_agree_on_evictions():
    def outcome(shards):
        cloud, service = make_service(seed=96, session_plane_shards=shards)
        clients = [service.connect() for _ in range(12)]
        for c in clients[::3]:
            c.create(f"/eph-{c.session_id}", b"", ephemeral=True)
            c.alive = False
        cloud.run(until=cloud.now + 3 * 60_000)
        return sorted((c.session_id, c.closed, c.evicted) for c in clients)

    assert outcome(1) == outcome(4)


def test_the_rearmed_watch_of_an_evicted_session_goes_with_the_next_write():
    """A session whose watch fired re-arms on another path and then dies:
    once the sharded sweep has evicted it, the next write to that path
    consumes the un-fired instance and delivers nothing to it."""
    cloud, service = make_service(seed=98, session_plane_shards=4)
    watches = service.system_store.table(SYSTEM_WATCHES)
    a, b = "/r0", "/r1"
    owner = service.connect()
    for p in (a, b):
        owner.create(p, b"")
    watcher = service.connect()
    fired = []
    watcher.get_data(a, watch=lambda ev: fired.append(ev.path))
    owner.set_data(a, b"1")                    # consumes the first watch
    cloud.run(until=cloud.now + 5_000)
    assert fired == [a]
    watcher.get_data(b, watch=lambda ev: fired.append(ev.path))
    assert watches.raw(b) is not None
    watcher.alive = False
    cloud.run(until=cloud.now + 3 * 60_000)
    assert watcher.closed and watcher.evicted
    assert watches.raw(b)["inst"]["data"]["sessions"] == [watcher.session_id]
    owner.set_data(b, b"1")
    cloud.run(until=cloud.now + 10_000)
    assert not watches.raw(b)["inst"].get("data")
    assert fired == [a]


def test_session_closing_mid_sweep_at_shard_boundary():
    """Satellite edge case: a session closes between a shard sweep's scan
    and its ping — the sweep must complete, enqueue no double close, and
    the other shards' sweeps must never see the session at all."""
    cloud, service = make_service(seed=99, session_plane_shards=4)
    clients = service.connect_many(16)
    victim = clients[0]
    shard = scan_segment_of(victim.session_id, 4)
    fn = service.heartbeat_fns[shard]
    # fire the owning shard's sweep manually and close the victim while
    # the sweep is mid-flight (after the scan latency started)
    done = fn.invoke(None)
    cloud.run(until=cloud.now + 1.0)           # sweep is scanning
    victim.close()
    cloud.run(until=done)
    assert victim.closed and not victim.evicted
    # the record is gone and later sweeps (any shard) are unaffected
    assert service.system_store.table(SYSTEM_SESSIONS).raw(
        victim.session_id) is None
    for other in service.heartbeat_fns:
        other.invoke(None)
    cloud.run(until=cloud.now + 10_000)
    assert sum(1 for c in clients if c.closed) == 1


# ------------------------------------------------------------ one sweep per period
def test_each_shard_sweeps_once_per_period():
    """A shard's cron parks on its phase offset while the deployment is at
    scale-to-zero; the first connect must replace that loop, not join it."""
    cloud, service = make_service(seed=104, session_plane_shards=4)
    service.connect()
    cloud.run(until=cloud.now + 4.6 * 60_000)
    # offsets 0/15/30/45 s: fourth firings at 240/255/270/285 s, window 276 s
    assert [t.fired for t in service.heartbeat_tasks] == [4, 4, 4, 3]
    assert [fn.invocations for fn in service.heartbeat_fns] == [4, 4, 4, 3]


def test_swarm_sweeps_shards_times_periods_and_evicts_each_silent_once():
    """ROADMAP item 1 gate: sweeps == shards x periods, evictions == silent
    sessions — the heartbeat's own counter, not just the closed clients."""
    shards, periods, silent = 8, 4, 12
    cloud, service = make_service(seed=105, user_store="mem",
                                  session_plane_shards=shards)
    period = HEARTBEAT_PERIOD_MS
    largest_offset = max(t.offset_ms for t in service.heartbeat_tasks)
    duration = 4.9 * period
    assert periods * period + largest_offset <= duration < (periods + 1) * period
    report = SessionSwarm(cloud, service, SwarmSpec(
        sessions=200, registration_wave=100, watchers=20, watch_paths=2,
        writers=4, lock_contenders=2, graceful_closes=10, silent=silent,
        duration_ms=duration, seed=105)).run()
    assert report["sweeps"] == shards * periods
    assert service.metrics.get("fk_heartbeat_sweeps_total").value == \
        shards * periods
    for fn, task in zip(service.heartbeat_fns, service.heartbeat_tasks):
        assert fn.invocations == task.fired == periods
    assert service.metrics.get("fk_heartbeat_evictions_total").value == \
        silent == report["evicted"]


@pytest.mark.parametrize("seed", range(40))
def test_swarm_smoke_cohorts_survive_contended_creates(seed):
    """``benchmarks/bench_swarm.py``'s 5k smoke cohorts: 50 writers, 10 hot
    paths and the lock group all create top-level nodes at one instant.
    The follower rejects some of those creates with ``system_busy``; the
    cohorts ride the session's busy-only retry, so no seed loses an op."""
    cloud, service = make_service(seed=seed, user_store="mem",
                                  session_plane_shards=8)
    report = SessionSwarm(cloud, service, SwarmSpec(
        sessions=5_000, registration_wave=1_000, watchers=200,
        watch_paths=10, writers=50, lock_contenders=6, graceful_closes=200,
        silent=200, seed=seed)).run()
    assert report["lock_grants"] == 12
    assert report["writer_ops"] == 200


# ------------------------------------------------------------ registration
def test_connect_many_matches_serial_connects():
    def register(batched):
        cloud, service = make_service(seed=101)
        if batched:
            clients = service.connect_many(10, batch_size=4)
        else:
            clients = [service.connect() for _ in range(10)]
        # every session usable: a write and a read each
        clients[0].create("/shared", b"")
        for i, c in enumerate(clients):
            c.create(f"/shared/n{i}", b"")
        assert clients[3].get_children("/shared") == \
            sorted(f"n{i}" for i in range(10))
        records = service.system_store.table(SYSTEM_SESSIONS)
        return (sorted(c.session_id for c in clients),
                sorted(sid for c in clients
                       if records.raw(c.session_id) is not None
                       for sid in [c.session_id]),
                service.active_sessions,
                service.heartbeat_tasks[0].enabled)

    assert register(batched=True) == register(batched=False)


def _kv_writes(cloud):
    return sum(line.count for line in cloud.meter.lines()
               if line.operation == "kv_write")


def test_connect_many_batches_the_session_writes():
    cloud, service = make_service(seed=102)
    before_writes = _kv_writes(cloud)
    t0 = cloud.now
    service.connect_many(50, batch_size=25)
    batched_ms = cloud.now - t0
    assert _kv_writes(cloud) - before_writes == 50   # per-item accounting
    # two BatchWriteItem round trips beat 50 serial conditional puts
    cloud2, service2 = make_service(seed=102)
    t0 = cloud2.now
    for _ in range(50):
        service2.connect()
        cloud2.run(until=cloud2.now + 5.0)  # serial puts land one by one
    serial_ms = cloud2.now - t0
    assert batched_ms < serial_ms / 3


def test_sessions_share_their_region_context(monkeypatch):
    """A region's caller context is built once, on first use: connecting
    100 sessions constructs no ``OpContext`` after that, and every client
    holds its region's one context."""
    from repro.faaskeeper import service as service_module

    built = []

    def counting_op_context(**fields):
        built.append(fields)
        return real(**fields)

    real = service_module.OpContext
    monkeypatch.setattr(service_module, "OpContext", counting_op_context)
    _cloud, service = make_service(seed=106,
                                   regions=["us-east-1", "eu-central-1"])
    clients = [service.connect() for _ in range(40)]
    clients += service.connect_many(40)
    clients += [service.connect("eu-central-1") for _ in range(10)]
    clients += service.connect_many(10, "eu-central-1")
    assert built == [{"region": "us-east-1"}, {"region": "eu-central-1"}]
    for client in clients:
        assert client.ctx is service.region_ctx(client.region)
    assert clients[0].ctx is service.system_ctx


def test_connect_many_validates_and_handles_empty():
    """A bad ``batch_size`` is refused whatever the count, also when
    there is nothing to register."""
    _cloud, service = make_service(seed=103)
    assert service.connect_many(0) == []
    for count in (5, 0):
        with pytest.raises(ValueError, match="batch_size"):
            service.connect_many(count, batch_size=0)
    assert service.clients == {}
