"""Sessions, heartbeat, eviction, scale-to-zero."""

import pytest

from repro.faaskeeper import SessionClosedError
from .conftest import make_service


def _evictions(service):
    return service.metrics.get("fk_heartbeat_evictions_total").value


def test_heartbeat_starts_with_first_session(service):
    assert not service.heartbeat_tasks[0].enabled
    c = service.connect()
    assert service.heartbeat_tasks[0].enabled
    c.close()
    assert not service.heartbeat_tasks[0].enabled


def test_reconnect_inside_one_period_does_not_double_the_crons():
    """Scale-to-zero and back inside one period: the loops parked by the
    first session's close must retire, not fire beside the new ones."""
    cloud, service = make_service(seed=1, storage_fault_rate=0.0)
    first = service.connect()
    first.create("/a", b"x")
    cloud.run(until=cloud.now + 10_000)
    first.close()
    cloud.run(until=cloud.now + 5_000)
    service.connect()
    cloud.run(until=cloud.now + 5 * 60_000 + 1_000)
    assert service.heartbeat_tasks[0].fired == 5
    assert service.gc_task.fired == 1


def test_scale_to_zero_no_compute_costs_when_idle(cloud, service):
    """Table 1: scale-to-zero — an idle deployment accrues no function or
    queue charges, only (externally modeled) storage retention."""
    c = service.connect()
    c.create("/a", b"x")
    c.close()
    before = cloud.meter.total
    cloud.run(until=cloud.now + 24 * 3600 * 1000)  # one idle day
    assert cloud.meter.total == before


def test_heartbeat_fires_every_minute_with_ephemeral_owner():
    # storage faults pinned off: the exact firing count is a fault-free
    # timing calibration — one retry backoff inside connect/create phase-
    # shifts the schedule and the 5-minute window catches only 4 firings.
    cloud, service = make_service(storage_fault_rate=0.0)
    c = service.connect()
    c.create("/e", ephemeral=True)
    fired_before = service.heartbeat_tasks[0].fired
    cloud.run(until=cloud.now + 5 * 60_000)
    assert service.heartbeat_tasks[0].fired - fired_before == 5


def test_dead_client_evicted_and_ephemerals_cleaned(cloud, service):
    c1 = service.connect()
    c2 = service.connect()
    c1.create("/e", ephemeral=True)
    c1.create("/persistent")
    c1.alive = False  # stops answering heartbeats
    cloud.run(until=cloud.now + 3 * 60_000)
    assert c2.exists("/e") is None
    assert c2.exists("/persistent") is not None
    assert _evictions(service) >= 1
    # session record removed
    assert service.system_store.table("fk-system-sessions").raw(
        c1.session_id) is None


def test_eviction_fires_watches(cloud, service):
    c1 = service.connect()
    c2 = service.connect()
    events = []
    c1.create("/e", ephemeral=True)
    c2.get_data("/e", watch=events.append)
    c1.alive = False
    cloud.run(until=cloud.now + 3 * 60_000)
    assert len(events) == 1


def test_live_client_not_evicted(cloud, service):
    c = service.connect()
    c.create("/e", ephemeral=True)
    cloud.run(until=cloud.now + 10 * 60_000)
    assert c.exists("/e") is not None
    assert _evictions(service) == 0


def test_active_sessions_counter_equals_the_full_scan(cloud, service):
    def check(expected):
        scan = sum(1 for c in service.clients.values() if not c.closed)
        assert service.active_sessions == scan == expected

    check(0)
    first = service.connect()
    check(1)
    many = service.connect_many(7, batch_size=3)
    check(8)
    first.close()
    check(7)
    service.on_session_closed(first.session_id)  # double close
    check(7)
    many[0].alive = False  # silent: the heartbeat evicts it
    cloud.run(until=cloud.now + 3 * 60_000)
    assert many[0].closed and many[0].evicted
    check(6)
    service.on_session_closed(many[0].session_id)  # close after evict
    many[0]._mark_closed()
    check(6)
    for client in many[1:]:
        client.close()
    check(0)


def test_dead_session_without_ephemerals_is_evicted(cloud, service):
    """Regression: the heartbeat used to ping only ephemeral owners, so a
    dead session owning none was never evicted — its session record, FIFO
    queue and watch registrations leaked forever."""
    c = service.connect()
    c.create("/plain")
    c.alive = False
    cloud.run(until=cloud.now + 3 * 60_000)
    assert c.closed
    assert service.system_store.table("fk-system-sessions").raw(
        c.session_id) is None
    assert _evictions(service) >= 1


def test_dead_watch_only_session_is_evicted_and_watch_reclaimed(cloud, service):
    """A dead session holding only a watch is evicted by the heartbeat, and
    the GC sweep can then reclaim its watch instance — pre-fix neither ever
    happened (the session was never pinged, so it stayed 'live' forever)."""
    writer = service.connect()
    ghost = service.connect()
    writer.create("/w", b"")
    events = []
    ghost.get_data("/w", watch=events.append)
    ghost.alive = False  # dead client: owns no ephemerals, only the watch
    cloud.run(until=cloud.now + 3 * 60_000)
    assert ghost.closed
    assert service.system_store.table("fk-system-sessions").raw(
        ghost.session_id) is None
    # Once the session record is gone, the GC watch sweep reclaims the
    # instance (no more fan-out work for the dead client).
    cloud.run(until=cloud.now + 10 * 60_000)
    watches = service.system_store.table("fk-system-watches")
    assert not (watches.raw("/w") or {}).get("inst", {}).get("data")
    assert events == []  # nothing was ever delivered to the dead client


def test_heartbeat_results_keyed_by_session_id_not_reply_order(cloud, service):
    """Regression: results were once built as ``dict(zip(to_check,
    done.values()))``, relying on replies arriving in ping-list order — a
    slow-but-alive session then inherited the dead session's result and was
    evicted in its place.  A ping is now one reply timer carrying its
    session id; ``service.heartbeat_ping`` is the per-ping hook, so a late
    reply is just a later timer."""
    slow = service.connect()   # alive, but slow to answer
    dead = service.connect()   # never answers
    slow.create("/slow", ephemeral=True)
    dead.create("/dead", ephemeral=True)
    dead.alive = False

    real_ping = service.heartbeat_ping
    order = []

    def skewed_ping(session_id):
        reply = real_ping(session_id)
        if session_id == slow.session_id:
            reply = cloud.env.timeout(50.0, session_id)  # answers, 50 ms late
        reply.callbacks.append(lambda r: order.append(r.value))
        return reply

    service.heartbeat_ping = skewed_ping
    cloud.run(until=cloud.now + 3 * 60_000)

    # replies came back out of ping order, and no ping ran as a process
    assert order[:2] == [dead.session_id, slow.session_id]
    sessions = service.system_store.table("fk-system-sessions")
    assert sessions.raw(slow.session_id) is not None  # alive: never evicted
    assert not slow.closed
    assert sessions.raw(dead.session_id) is None      # dead: evicted
    assert dead.closed


def test_sweep_pings_with_timers_not_processes(cloud, service):
    """A sweep arms one timeout per session: no ``ping:*`` process, and the
    SUSPENDED transition happens at reply time, not at ping time."""
    import repro.sim.kernel as kernel

    clients = service.connect_many(6)
    clients[0].alive = False
    spawned = []
    real_init = kernel.Process.__init__

    def recording_init(self, env, generator, name=None):
        spawned.append(name)
        real_init(self, env, generator, name)

    states = []
    clients[0].add_listener(lambda state: states.append((cloud.now, state)))
    kernel.Process.__init__ = recording_init
    try:
        t0 = cloud.now
        cloud.run(until=service.heartbeat_fns[0].invoke(None))
    finally:
        kernel.Process.__init__ = real_init
    assert _evictions(service) == 1
    assert not [name for name in spawned if name and name.startswith("ping")]
    assert len([name for name in spawned if name]) <= 3  # sweep + eviction
    assert states[0][1].name == "SUSPENDED" and states[0][0] > t0


def test_two_sessions_are_isolated_queues(service):
    c1, c2 = service.connect(), service.connect()
    assert c1.session_id != c2.session_id
    assert service._session_queues[c1.session_id] is not \
        service._session_queues[c2.session_id]


def test_session_writes_after_eviction_fail(cloud, service):
    c = service.connect()
    c.create("/e", ephemeral=True)
    c.alive = False
    cloud.run(until=cloud.now + 3 * 60_000)
    assert c.closed
    with pytest.raises(SessionClosedError):
        c.create("/x")


def test_closed_session_releases_queue_dispatcher_and_stream(cloud, service):
    """Teardown: once the close envelope is processed nothing of the
    session stays behind — not in the cloud, not in the service."""
    keeper = service.connect()           # keeps the deployment awake
    c = service.connect()
    c.create("/e", ephemeral=True)       # queue used: stream + dispatcher live
    queue = service._session_queues[c.session_id]
    assert f"queue:{queue.name}" in cloud.rng and queue._dispatching
    c.close()
    cloud.run(until=cloud.now + 1_000)
    assert c.session_id not in service._session_queues
    assert c.session_id not in service.clients
    assert queue.name not in cloud._queues
    assert f"queue:{queue.name}" not in cloud.rng
    assert queue._buffer is None and queue.backlog == 0
    assert keeper.session_id in service.clients
    # an eviction for the closed session finds nothing to evict
    cloud.run_process(service.enqueue_eviction(service.system_ctx,
                                               c.session_id))
    assert queue.sent == 2               # the create and the close, no more


def test_request_racing_the_close_fails_like_one_on_a_closed_session(
        cloud, service):
    """A send that lands on the deleted session queue — the request was on
    its way when the evictor's close was processed — and a request still
    buffered behind the close both fail with SessionClosedError."""
    service.connect()
    c = service.connect()
    c.create("/plain")
    in_flight = c.set_data_async("/plain", b"1")     # paying send latency
    service.on_session_closed(c.session_id, evicted=True)
    assert c.closed and c.evicted
    with pytest.raises(SessionClosedError):
        in_flight.wait()
    with pytest.raises(SessionClosedError):
        c.set_data("/plain", b"2")

    d = service.connect()
    d.create("/other")
    closing = d.close_async()
    behind = d.set_data_async("/other", b"x")        # queued behind the close
    closing.wait()
    with pytest.raises(SessionClosedError):
        behind.wait()
    assert d.session_id not in service.clients       # nothing owed any more


def test_eviction_racing_a_close_does_not_crash_the_sweep(cloud, service):
    """The evictor's send may find the queue deleted under it (the session
    closed while the request paid its latency): nothing to evict."""
    service.connect()
    c = service.connect()
    eviction = cloud.env.process(
        service.enqueue_eviction(service.system_ctx, c.session_id))
    cloud.run(until=cloud.now + 0.01)                # send latency running
    service.on_session_closed(c.session_id)
    cloud.run(until=eviction)                         # no NoSuchQueue escapes
    assert eviction.ok and c.closed


def test_heartbeat_cost_is_metered(cloud, service):
    c = service.connect()
    c.create("/e", ephemeral=True)
    cloud.run(until=cloud.now + 10 * 60_000)
    assert cloud.meter.service_total("fn:fk-heartbeat") > 0
