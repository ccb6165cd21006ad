"""Sessions, heartbeat, eviction, scale-to-zero."""

import pytest

from repro.faaskeeper import SessionClosedError
from repro.sim.kernel import AllOf, ConditionValue
from .conftest import make_service


def test_heartbeat_starts_with_first_session(service):
    assert not service.heartbeat_task.enabled
    c = service.connect()
    assert service.heartbeat_task.enabled
    c.close()
    assert not service.heartbeat_task.enabled


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
    # storage_faults pinned off: the exact firing count is a fault-free
    # timing calibration — one retry backoff inside connect/create phase-
    # shifts the schedule and the 5-minute window catches only 4 firings.
    cloud, service = make_service(storage_faults=False)
    c = service.connect()
    c.create("/e", ephemeral=True)
    fired_before = service.heartbeat_task.fired
    cloud.run(until=cloud.now + 5 * 60_000)
    assert service.heartbeat_task.fired - fired_before == 5


def test_dead_client_evicted_and_ephemerals_cleaned(cloud, service):
    c1 = service.connect()
    c2 = service.connect()
    c1.create("/e", ephemeral=True)
    c1.create("/persistent")
    c1.alive = False  # stops answering heartbeats
    cloud.run(until=cloud.now + 3 * 60_000)
    assert c2.exists("/e") is None
    assert c2.exists("/persistent") is not None
    assert service.heartbeat_logic.evictions >= 1
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
    assert service.heartbeat_logic.evictions == 0


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
    assert service.heartbeat_logic.evictions >= 1


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


def test_heartbeat_results_keyed_by_ping_not_dict_order(cloud, service):
    """Regression: results were built as ``dict(zip(to_check,
    done.values()))``, silently relying on the AllOf value dict iterating
    in ping-list order.  Under a completion-ordered (equally legal)
    condition value, the slow-but-alive session inherited the dead
    session's result and was evicted in its place."""
    import repro.faaskeeper.heartbeat as hb_module

    class CompletionOrderedAllOf(AllOf):
        """AllOf whose value dict iterates in completion order."""

        def _check(self, event):
            if self.triggered:
                return
            if not event._ok:
                event._defused = True
                self.fail(event._value)
                return
            self._fired.append(event)
            if len(self._fired) >= self._need:
                value = ConditionValue()
                for ev in self._fired:  # completion order, not event order
                    value[ev] = ev._value
                self.succeed(value)

    slow = service.connect()   # alive, but slow to answer
    dead = service.connect()   # never answers
    slow.create("/slow", ephemeral=True)
    dead.create("/dead", ephemeral=True)
    dead.alive = False

    real_ping = service.heartbeat_ping

    def skewed_ping(session_id):
        if session_id == slow.session_id:
            yield service.cloud.env.timeout(50.0)  # answers, late
        result = yield from real_ping(session_id)
        return result

    service.heartbeat_ping = skewed_ping
    original_allof = hb_module.AllOf
    hb_module.AllOf = CompletionOrderedAllOf
    try:
        cloud.run(until=cloud.now + 3 * 60_000)
    finally:
        hb_module.AllOf = original_allof
        service.heartbeat_ping = real_ping

    sessions = service.system_store.table("fk-system-sessions")
    assert sessions.raw(slow.session_id) is not None  # alive: never evicted
    assert not slow.closed
    assert sessions.raw(dead.session_id) is None      # dead: evicted
    assert dead.closed


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


def test_heartbeat_cost_is_metered(cloud, service):
    c = service.connect()
    c.create("/e", ephemeral=True)
    cloud.run(until=cloud.now + 10 * 60_000)
    assert cloud.meter.service_total("fn:fk-heartbeat") > 0
