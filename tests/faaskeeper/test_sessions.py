"""Sessions, heartbeat, eviction, scale-to-zero."""

import pytest

from repro.faaskeeper import SessionClosedError
from repro.faaskeeper.layout import SYSTEM_SESSIONS
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
    cloud, service = make_service(seed=1)
    first = service.connect()
    first.create("/a", b"x")
    cloud.run(until=cloud.now + 10_000)
    first.close()
    cloud.run(until=cloud.now + 5_000)
    service.connect()
    cloud.run(until=cloud.now + 5 * 60_000 + 1_000)
    assert service.heartbeat_tasks[0].fired == 5
    assert [s.task for s in service.stages if s.task] == \
        service.heartbeat_tasks


def test_scale_to_zero_no_compute_costs_when_idle(cloud, service):
    """Table 1: scale-to-zero — an idle deployment accrues no function or
    queue charges, only (externally modeled) storage retention."""
    c = service.connect()
    c.create("/a", b"x")
    c.close()
    before = cloud.meter.total
    cloud.run(until=cloud.now + 24 * 3600 * 1000)  # one idle day
    assert cloud.meter.total == before


def test_a_registration_batch_stores_one_record_image(service):
    table = service.system_store.table(SYSTEM_SESSIONS)
    fleet = service.connect_many(60)                 # batches of 25, 25, 10
    images = [table.raw(c.session_id) for c in fleet]
    assert len({id(image) for image in images}) == 3
    assert all(image == {"ephemeral": [], "region": service.config.primary_region,
                         "last_rid": 0} for image in images)


def test_a_session_record_is_copied_on_its_first_write(service):
    """The first write moves the session's ``last_rid`` and an ephemeral
    create its ``ephemeral`` list: each gives that session a record of its
    own, and its batch-mates keep the shared original."""
    table = service.system_store.table(SYSTEM_SESSIONS)
    writer, *mates = service.connect_many(3)
    shared = table.raw(writer.session_id)
    original = {"ephemeral": [], "region": service.config.primary_region,
                "last_rid": 0}
    writer.create("/a", b"x")
    first = table.raw(writer.session_id)
    assert first is not shared and first["last_rid"] > 0
    writer.create("/e", b"", ephemeral=True)
    assert table.raw(writer.session_id)["ephemeral"] == ["/e"]
    assert all(table.raw(m.session_id) is shared for m in mates)
    assert shared == original


def test_heartbeat_fires_every_minute_with_ephemeral_owner():
    # Fault-free on purpose: the exact firing count is a timing
    # calibration — one retry backoff inside connect/create phase-shifts
    # the schedule and the 5-minute window catches only 4 firings.
    cloud, service = make_service()
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
        # an entry nobody took a handle of (None) is an open session
        scan = sum(1 for c in service.clients.values()
                   if c is None or not c.closed)
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
    the next write to the path consumes its watch instance without telling
    it anything — pre-fix the session was never pinged, so it stayed
    'live' forever."""
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
    watches = service.system_store.table("fk-system-watches")
    assert watches.raw("/w")["inst"]["data"]["sessions"] == [ghost.session_id]
    writer.set_data("/w", b"x")
    cloud.run(until=cloud.now + 10_000)
    assert not watches.raw("/w")["inst"].get("data")
    assert events == []  # nothing was ever delivered to the dead client


def test_heartbeat_results_keyed_by_session_id_not_reply_order(cloud, service):
    """Regression: results were once built as ``dict(zip(to_check,
    done.values()))``, relying on replies arriving in ping-list order — a
    slow-but-alive session then inherited the dead session's result and was
    evicted in its place.  A sweep's replies are one timer train whose
    elements carry their session ids; ``service.heartbeat_reply_delay`` is
    the per-session hook, so a late reply is just a later element."""
    slow = service.connect()   # alive, but slow to answer
    dead = service.connect()   # never answers
    slow.create("/slow", ephemeral=True)
    dead.create("/dead", ephemeral=True)
    dead.alive = False

    real_delay, real_answered = service.heartbeat_reply_delay, service.heartbeat_answered
    order = []

    def skewed_delay(session_id):
        delay = real_delay(session_id)
        return 50.0 if session_id == slow.session_id else delay  # 50 ms late

    def recording_answered(session_id):
        order.append(session_id)
        return real_answered(session_id)

    service.heartbeat_reply_delay = skewed_delay
    service.heartbeat_answered = recording_answered
    cloud.run(until=cloud.now + 3 * 60_000)

    # replies were read out of ping order (slow was pinged first)
    assert order[:2] == [dead.session_id, slow.session_id]
    sessions = service.system_store.table("fk-system-sessions")
    assert sessions.raw(slow.session_id) is not None  # alive: never evicted
    assert not slow.closed
    assert sessions.raw(dead.session_id) is None      # dead: evicted
    assert dead.closed


def test_sweep_pings_with_timers_not_processes(cloud, service):
    """A sweep arms one timer train for all its sessions: no ``ping:*``
    process, and the SUSPENDED transition happens at reply time, not at
    ping time."""
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


def test_each_reply_is_read_at_its_own_instant_not_at_the_sweep_end(cloud, service):
    """A sweep reads each session's reply at that session's reply instant.
    Reading every reply when the sweep's last one lands would evict
    ``early``, which answered and only then went silent, and would mark
    ``silent`` SUSPENDED at the sweep's end instead of at its reply."""
    early, silent, last = service.connect_many(3)
    env = cloud.env
    delays = {early.session_id: 10.0, silent.session_id: 30.0, last.session_id: 50.0}
    pinged = []

    def delay(session_id):
        if not pinged:  # the sweep pings: silence both before the last reply
            pinged.append(env.now)
            env.timeout(5.0).callbacks.append(lambda _: setattr(silent, "alive", False))
            env.timeout(20.0).callbacks.append(lambda _: setattr(early, "alive", False))
        return delays[session_id]

    states = []
    silent.add_listener(lambda state: states.append((env.now, state.name)))
    service.heartbeat_reply_delay = delay
    report = cloud.run_process(service.heartbeat_fns[0].run(None))
    assert report == {"checked": 3, "evicted": 1}
    assert states[0] == (pinged[0] + 30.0, "SUSPENDED")
    cloud.run(until=cloud.now + 1_000)
    assert silent.closed and not early.closed and not last.closed


def test_two_sessions_are_isolated_queues(service):
    c1, c2 = service.connect(), service.connect()
    assert c1.session_id != c2.session_id
    c1.create("/a")
    c2.create("/b")
    queues = service._session_queues
    assert queues[c1.session_id] is c1.queue
    assert queues[c2.session_id] is c2.queue
    assert c1.queue is not c2.queue
    assert c1.queue.sent == c2.queue.sent == 1


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


def test_a_request_overtaken_by_the_close_makes_no_queue(cloud, service):
    """The session's first request has not run yet when the session is
    closed: it fails like one on a closed session, and no queue is made."""
    service.connect()
    c = service.connect()
    first = c.set_data_async("/plain", b"1")
    service.on_session_closed(c.session_id, evicted=True)
    with pytest.raises(SessionClosedError):
        first.wait()
    assert "queue" not in (c._made or {})
    assert f"fk-session-{c.session_id}" not in cloud._queues
    assert c.session_id not in service._session_queues


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
