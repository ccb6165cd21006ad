"""Sharded session plane: partitioned heartbeat sweeps, batched
registration — and the shards=1 bit-for-bit gate.

``session_plane_shards=1`` (the default) must be the paper's flat plane,
not a near-copy: same event sequence, same virtual-clock timings, same
metered cost.  The sharded topology keeps every protocol (ephemeral-first
eviction per shard, guarded watch removal) and only splits the *sweeps*
over the session table; each shard sweeps once per period.
"""

import pytest

from repro.cloud import Cloud
from repro.cloud.kvstore import scan_segment_of
from repro.faaskeeper import FaaSKeeperConfig
from repro.faaskeeper.layout import SYSTEM_SESSIONS, SYSTEM_WATCHES
from repro.faaskeeper.swarm import SessionSwarm, SwarmSpec
from .conftest import make_service


def test_config_validates_session_plane_shards():
    with pytest.raises(ValueError):
        FaaSKeeperConfig(session_plane_shards=0)
    assert FaaSKeeperConfig().session_plane_shards == 1


# ------------------------------------------------------------ fingerprint
def _workload_fingerprint(seed, **config_kwargs):
    """Heartbeat + eviction + watch activity, run past two sweep periods."""
    cloud, service = make_service(seed=seed, **config_kwargs)
    c = service.connect()
    events = []
    c.create("/a", b"")
    c.create("/a/x", b"v0", ephemeral=True)
    hits = []
    c.get_data("/a/x", watch=lambda ev: hits.append(ev.txid))
    res = c.set_data("/a/x", b"v1")
    events.append((res.txid, res.version))
    dead = service.connect()
    dead.create("/a/dead", b"", ephemeral=True)
    dead.alive = False
    cloud.run(until=cloud.now + 3 * 60_000)     # two sweeps + eviction
    events.append((dead.closed, dead.evicted, dead.closed_at))
    events.append(service.metrics.get("fk_heartbeat_evictions_total").value)
    events.append(tuple(hits))
    events.append(round(cloud.now, 6))
    events.append(round(sum(cloud.meter.by_service().values()), 12))
    return events


def test_shards1_identical_to_default_flat_plane():
    """Acceptance gate: session_plane_shards=1 must be the paper's session
    plane bit-for-bit — same sweeps, evictions, watch events, virtual-clock
    timing and metered cost."""
    assert _workload_fingerprint(91) == \
        _workload_fingerprint(91, session_plane_shards=1)


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


def test_gc_reclaims_the_rearmed_watch_of_an_evicted_session():
    """Satellite edge case: a session whose watch fired re-arms on another
    path and then dies — the GC's guarded removal must reclaim the
    un-fired instance once the sharded sweep has evicted the session."""
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
    service.gc_fn.invoke(None)
    cloud.run(until=cloud.now + 10_000)
    insts = (watches.raw(b) or {}).get("inst") or {}
    assert all(watcher.session_id not in (i.get("sessions") or [])
               for i in insts.values())


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
    cloud, service = make_service(seed=104, session_plane_shards=4,
                                  storage_fault_rate=0.0)
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
                                  session_plane_shards=shards,
                                  storage_fault_rate=0.0)
    period = service.config.heartbeat_period_ms
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


def test_connect_many_batches_the_session_writes():
    cloud, service = make_service(seed=102)
    table = service.system_store.table(SYSTEM_SESSIONS)
    before_writes = table.write_count
    t0 = cloud.now
    service.connect_many(50, batch_size=25)
    batched_ms = cloud.now - t0
    assert table.write_count - before_writes == 50   # per-item accounting
    # two BatchWriteItem round trips beat 50 serial conditional puts
    cloud2, service2 = make_service(seed=102)
    t0 = cloud2.now
    for _ in range(50):
        service2.connect()
        cloud2.run(until=cloud2.now + 5.0)  # serial puts land one by one
    serial_ms = cloud2.now - t0
    assert batched_ms < serial_ms / 3


def test_connect_many_validates_and_handles_empty():
    _cloud, service = make_service(seed=103)
    assert service.connect_many(0) == []
    with pytest.raises(ValueError):
        service.connect_many(5, batch_size=0)
