"""High-level client API: session state machine, listeners, ensure_path,
SessionRetry, the self-re-arming watch decorators, and the exists() cache
route."""

import pytest

from repro.faaskeeper import (
    BadVersionError,
    KeeperState,
    NodeExistsError,
    RequestFailedError,
    RetryFailedError,
    SessionClosedError,
    SessionRetry,
    SystemBusyError,
)
from .conftest import make_service


# ---------------------------------------------------------------- state machine
def test_session_starts_connected_and_close_is_lost(cloud, service):
    client = service.connect()
    states = []
    client.add_listener(states.append)
    assert client.state is KeeperState.CONNECTED
    client.create("/a", b"x")
    assert states == []                       # healthy traffic: no transitions
    client.close()
    assert client.state is KeeperState.LOST
    assert states == [KeeperState.LOST]
    assert not client.evicted                 # client-initiated, not evicted
    with pytest.raises(SessionClosedError):
        client.create("/b")


def test_eviction_surfaces_suspended_then_lost(cloud, service):
    """Satellite: an evicted session learns of its death through the LOST
    transition the moment the evictor's close lands — not on its next
    failed request."""
    client = service.connect()
    states = []
    client.add_listener(states.append)
    client.create("/e", ephemeral=True)
    client.alive = False                      # stops answering heartbeats
    cloud.run(until=cloud.now + 3 * 60_000)
    # The missed ping suspends the session; the eviction makes it LOST —
    # without the client issuing a single request in between.
    assert states == [KeeperState.SUSPENDED, KeeperState.LOST]
    assert client.state is KeeperState.LOST
    assert client.closed and client.evicted


def test_lost_is_terminal_and_listeners_removable(cloud, service):
    client = service.connect()
    seen_a, seen_b = [], []
    client.add_listener(seen_a.append)
    client.add_listener(seen_b.append)
    client.remove_listener(seen_b.append)     # different bound object: no-op
    client.remove_listener(seen_a.append)     # also a different object
    # Listeners are compared by identity; hold the callable to remove it.
    holder = seen_b.append
    client.add_listener(holder)
    client.remove_listener(holder)
    client.close()
    assert seen_b == []
    # LOST is terminal: later transitions are ignored.
    client._transition(KeeperState.CONNECTED)
    assert client.state is KeeperState.LOST


def test_broken_listener_does_not_poison_the_session(cloud, service):
    client = service.connect()

    def bad_listener(_state):
        raise RuntimeError("boom")

    good = []
    client.add_listener(bad_listener)
    client.add_listener(good.append)
    client.close()
    assert good == [KeeperState.LOST]


# ---------------------------------------------------------------- ensure_path
def test_ensure_path_creates_missing_ancestors(cloud, service):
    client = service.connect()
    assert client.ensure_path("/app/config/region/primary")
    assert client.get_children("/app/config/region") == ["primary"]
    # Idempotent, and absorbs pre-existing segments.
    assert client.ensure_path("/app/config/region/primary")
    client.create("/app/config/region/primary/leaf", b"x")
    assert client.ensure_path("/app/config/region/primary/leaf")


def test_ensure_path_races_are_absorbed(cloud, service):
    a, b = service.connect(), service.connect()
    assert a.ensure_path("/shared/deep")
    assert b.ensure_path("/shared/deep/deeper")
    assert b.get_children("/shared/deep") == ["deeper"]


# ---------------------------------------------------------------- SessionRetry
def test_session_retry_retries_transient_failures(cloud, service):
    client = service.connect()
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise RequestFailedError("system_busy")
        return "ok"

    before = cloud.now
    assert client.retry(flaky) == "ok"
    assert calls["n"] == 3
    assert cloud.now > before                 # backoff advanced the clock


def test_session_retry_exhaustion_raises_with_cause(cloud, service):
    client = service.connect()
    retry = SessionRetry(client, max_tries=3, delay_ms=5.0)

    def always_busy():
        raise RequestFailedError("system_busy")

    with pytest.raises(RetryFailedError) as excinfo:
        retry(always_busy)
    assert isinstance(excinfo.value.__cause__, RequestFailedError)


def test_session_retry_extra_exceptions_and_copy(cloud, service):
    client = service.connect()
    assert BadVersionError not in client.retry.retry_exceptions
    versioned = client.retry.copy(retry_exceptions=(BadVersionError,),
                                  max_tries=2)
    assert BadVersionError in versioned.retry_exceptions
    calls = {"n": 0}

    def stale_once():
        calls["n"] += 1
        if calls["n"] == 1:
            raise BadVersionError("stale")
        return calls["n"]

    assert versioned(stale_once) == 2
    # Non-retryable errors surface immediately.
    with pytest.raises(NodeExistsError):
        client.retry(lambda: (_ for _ in ()).throw(NodeExistsError("x")))


def test_co_call_backs_off_on_the_virtual_clock(cloud, service):
    client = service.connect()
    retry = SessionRetry(client, max_tries=4, delay_ms=10.0, backoff=3.0,
                         max_delay_ms=50.0)
    calls = []

    def busy_thrice():
        calls.append(cloud.now)
        if len(calls) <= 3:
            raise SystemBusyError("create /x: system_busy")
        return (yield client.create_async("/x", b"v").event)

    proc = cloud.env.process(retry.co_call(busy_thrice))
    assert cloud.env.run(until=proc) == "/x"
    t0 = calls[0]
    assert [t - t0 for t in calls] == pytest.approx(
        [0.0, 10.0, 40.0, 90.0])           # waits 10, 30, then the 50 cap

    def exists_already():
        calls.append(cloud.now)
        return client.create_async("/x", b"again")  # an FKFuture step

    calls.clear()
    proc = cloud.env.process(retry.co_call(exists_already))
    with pytest.raises(NodeExistsError):
        cloud.env.run(until=proc)
    assert len(calls) == 1                    # not retryable: surfaced at once


def test_busy_retry_copy_stays_busy_only(cloud, service):
    """A copy of the busy-only retry keeps its class: widening it with
    BadVersionError must not widen it back to every RequestFailedError —
    a ``system_failure`` may follow a commit whose reply was lost."""
    client = service.connect()
    busy = client.busy_retry.copy(retry_exceptions=(BadVersionError,))
    assert type(busy) is type(client.busy_retry)
    errors = [BadVersionError("stale"),
              SystemBusyError("create /x: system_busy"),
              RequestFailedError("create /x: system_failure")]
    calls = []

    def step():
        calls.append(cloud.now)
        raise errors[len(calls) - 1]

    with pytest.raises(RequestFailedError, match="system_failure"):
        busy(step)
    assert len(calls) == 3
    calls.clear()
    errors.insert(0, errors.pop())            # system_failure first
    with pytest.raises(RequestFailedError, match="system_failure"):
        busy(step)
    assert len(calls) == 1


# ---------------------------------------------------------------- exists cache
def test_exists_is_served_from_the_read_cache():
    """Satellite: exists() shares the (path, DATA) cache entry with
    get_data — in both directions — instead of always paying the user-store
    round trip."""
    cloud, service = make_service(seed=5, client_cache_entries=32)
    client = service.connect()
    client.create("/node", b"payload")

    # exists miss admits; the repeat exists and a get_data both hit.
    assert client.exists("/node") is not None
    stats = client._cache.stats()
    assert (stats["hits"], stats["misses"]) == (0, 1)
    assert client.exists("/node") is not None
    data, _stat = client.get_data("/node")
    assert data == b"payload"
    stats = client._cache.stats()
    assert (stats["hits"], stats["misses"]) == (2, 1)

    # And a get_data miss admits the entry exists() then hits.
    client.create("/other", b"x")
    client.get_data("/other")
    hits_before = client._cache.stats()["hits"]
    assert client.exists("/other") is not None
    assert client._cache.stats()["hits"] == hits_before + 1


def test_exists_with_watch_bypasses_the_cache():
    """A fresh EXISTS watch must never be paired with a cached image that
    predates changes the new instance will not report."""
    cloud, service = make_service(seed=5, client_cache_entries=32)
    client = service.connect()
    client.create("/node", b"payload")
    client.get_data("/node")                  # admit the (path, DATA) entry
    hits_before = client._cache.stats()["hits"]
    events = []
    assert client.exists("/node", watch=events.append) is not None
    assert client._cache.stats()["hits"] == hits_before  # storage read
    # The watch is live: a delete reports exactly once.
    client.delete("/node")
    cloud.run(until=cloud.now + 5_000)
    assert len(events) == 1


def test_exists_cached_entry_invalidated_by_own_write_and_foreign_write():
    cloud, service = make_service(seed=5, client_cache_entries=32)
    a, b = service.connect(), service.connect()
    a.create("/node", b"v1")
    assert a.exists("/node").data_length == 2
    # Read-your-writes through the cache: own set_data invalidates.
    a.set_data("/node", b"longer-value")
    assert a.exists("/node").data_length == len(b"longer-value")
    # Foreign write: the guarding DATA watch invalidates the entry.
    invalidations_before = a._cache.stats()["invalidations"]
    b.set_data("/node", b"x")
    cloud.run(until=cloud.now + 5_000)
    assert a._cache.stats()["invalidations"] > invalidations_before
    assert a.exists("/node").data_length == 1


def test_exists_registers_nothing_with_cache_off(cloud, service):
    """The default (cache-off) deployment keeps the historical exists()
    behaviour: a pure user-store stat, no watch-table traffic."""
    client = service.connect()
    client.create("/node", b"x")
    assert client.exists("/node") is not None
    assert client.exists("/missing") is None
    watch_item = service.system_store.table("fk-system-watches").raw("/node")
    assert not (watch_item or {}).get("inst")


# ---------------------------------------------------------------- watch decorators
def test_datawatch_observes_lifecycle(cloud, service):
    writer, watcher = service.connect(), service.connect()
    writer.create("/cfg", b"v0")
    seen = []
    handle = watcher.DataWatch("/cfg", lambda data, stat: seen.append(data))
    assert seen == [b"v0"]                    # immediate initial call
    writer.set_data("/cfg", b"v1")
    cloud.run(until=cloud.now + 5_000)
    writer.delete("/cfg")
    cloud.run(until=cloud.now + 5_000)
    writer.create("/cfg", b"v2")
    cloud.run(until=cloud.now + 5_000)
    assert seen == [b"v0", b"v1", None, b"v2"]
    assert handle.deliveries == 3
    handle.stop()
    writer.set_data("/cfg", b"v3")
    cloud.run(until=cloud.now + 5_000)
    assert seen[-1] == b"v2"                  # stopped: no further calls


def test_datawatch_missing_node_then_created(cloud, service):
    writer, watcher = service.connect(), service.connect()
    seen = []
    watcher.DataWatch("/later", lambda data, stat: seen.append(data))
    assert seen == [None]
    writer.create("/later", b"born")
    cloud.run(until=cloud.now + 5_000)
    assert seen == [None, b"born"]


def test_datawatch_stops_on_false_return(cloud, service):
    writer, watcher = service.connect(), service.connect()
    writer.create("/cfg", b"v0")
    calls = []

    @watcher.DataWatch("/cfg")
    def only_once(data, stat):
        calls.append(data)
        return False

    writer.set_data("/cfg", b"v1")
    cloud.run(until=cloud.now + 5_000)
    assert calls == [b"v0"]


def test_childrenwatch_observes_membership(cloud, service):
    writer, watcher = service.connect(), service.connect()
    writer.create("/grp", b"")
    seen = []
    watcher.ChildrenWatch("/grp", seen.append)
    writer.create("/grp/a", b"")
    cloud.run(until=cloud.now + 5_000)
    writer.create("/grp/b", b"")
    cloud.run(until=cloud.now + 5_000)
    writer.delete("/grp/a")
    cloud.run(until=cloud.now + 5_000)
    assert seen == [[], ["a"], ["a", "b"], ["b"]]


def test_childrenwatch_send_event_and_death_on_delete(cloud, service):
    writer, watcher = service.connect(), service.connect()
    writer.create("/grp", b"")
    seen = []
    handle = watcher.ChildrenWatch(
        "/grp", lambda children, event: seen.append((children, event)),
        send_event=True)
    assert seen == [([], None)]               # initial call carries no event
    writer.create("/grp/a", b"")
    cloud.run(until=cloud.now + 5_000)
    assert seen[-1][0] == ["a"]
    assert seen[-1][1] is not None and seen[-1][1].path == "/grp"
    writer.delete("/grp/a")
    cloud.run(until=cloud.now + 5_000)
    writer.delete("/grp")
    cloud.run(until=cloud.now + 5_000)
    assert not handle.active                  # watch died with the node


def test_childrenwatch_requires_existing_node(cloud, service):
    from repro.faaskeeper import NoNodeError
    watcher = service.connect()
    with pytest.raises(NoNodeError):
        watcher.ChildrenWatch("/nowhere", lambda children: None)


# ---------------------------------------------------------------- re-arm race
@pytest.mark.parametrize("shards", [1, 4])
def test_datawatch_rearm_race_under_coalesced_burst(shards):
    """Satellite: a coalesced write burst under ack_policy=on_commit must
    not lose a change between a delivery and the re-arm — the decorator
    registers before it re-reads, so the final value always lands.

    Faults pinned off: a fault-delayed re-arm registration can slip past
    the final fan-out's watch query, after which the one-shot contract
    only promises the (possibly stale, Z4-consistent) re-read — the
    exact-final-delivery property asserted here is a fault-free-timing
    guarantee, like the fingerprint gates."""
    cloud, service = make_service(seed=11, leader_shards=shards,
                                  distributor_enabled=True,
                                  ack_policy="on_commit",
                                  storage_fault_rate=0.0)
    writer, watcher = service.connect(), service.connect()
    writer.create("/cfg", b"v0000")
    cloud.run(until=cloud.now + 10_000)       # let the create replicate

    seen = []
    handle = watcher.DataWatch("/cfg", lambda data, stat: seen.append(data))
    assert seen and seen[0] == b"v0000"

    burst = 30
    futures = [writer.set_data_async("/cfg", f"v{i:04d}".encode())
               for i in range(1, burst + 1)]
    for future in futures:
        future.wait()
    cloud.run(until=cloud.now + 120_000)      # drain distributor + watches

    # The final write is observed even though coalescing may have folded
    # arbitrarily many intermediate values into single notifications.
    assert seen[-1] == b"v%04d" % burst
    # Re-reads are monotone: the watcher never observes time running
    # backwards (per-path writes land in commit order).
    versions = [int(value[1:]) for value in seen if value is not None]
    assert versions == sorted(versions)
    # The burst collapsed into at least one delivery; each one re-armed.
    assert 1 <= handle.deliveries <= burst
    assert handle.active


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("ack_policy,shards", [
    ("on_commit", 1), ("on_replicate", 1), ("on_commit", 4)])
def test_childrenwatch_rearm_race_under_burst(ack_policy, shards, seed):
    """A watcher that re-registers between the distributor's armed-ids
    query and the write landing reads the old child list; the
    post-visibility consume must run for *every* touched path, armed at
    query time or not, or that live watch is never fired.  Swept over
    seeds: the window is a few milliseconds wide and a single seed hits
    or misses it by luck."""
    cloud, service = make_service(seed=seed, leader_shards=shards,
                                  distributor_enabled=True,
                                  ack_policy=ack_policy)
    writer, watcher = service.connect(), service.connect()
    writer.create("/grp", b"")
    cloud.run(until=cloud.now + 10_000)
    seen = []
    watcher.ChildrenWatch("/grp", seen.append)

    futures = [writer.create_async(f"/grp/kid-{i}", b"") for i in range(8)]
    futures += [writer.delete_async("/grp/kid-0")]
    for future in futures:
        future.wait()
    cloud.run(until=cloud.now + 120_000)
    assert seen[-1] == [f"kid-{i}" for i in range(1, 8)]
