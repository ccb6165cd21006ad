"""Client-side read cache: hit/miss behaviour, watch-driven invalidation,
and the consistency gates (read-your-writes, Z4) that must survive caching."""

import pytest

from repro.faaskeeper import FaaSKeeperConfig, SessionClosedError
from repro.faaskeeper.model import WatchType
from .conftest import make_service


def settle(cloud, ms=3000):
    cloud.run(until=cloud.now + ms)


def cached_service(seed=300, **kwargs):
    kwargs.setdefault("client_cache_entries", 64)
    return make_service(seed=seed, **kwargs)


# ---------------------------------------------------------------- basics
def test_cache_disabled_by_default():
    cloud, service = make_service(seed=301)
    c = service.connect()
    assert c._cache is None
    c.create("/a", b"x")
    c.get_data("/a")
    c.get_data("/a")
    stats = service.client_cache_stats()
    assert stats["hits"] == 0 and stats["misses"] == 0


def test_repeat_read_hits_cache():
    cloud, service = cached_service(seed=302)
    c = service.connect()
    c.create("/a", b"v0")
    c.get_data("/a")           # miss: fills the cache
    t0 = cloud.now
    data, stat = c.get_data("/a")  # hit: no storage round trip
    assert data == b"v0"
    assert cloud.now - t0 < 1.0    # hits skip the ~5-12 ms storage read
    assert c._cache.hits == 1 and c._cache.misses == 1


def test_get_children_cached_separately_from_get_data():
    cloud, service = cached_service(seed=303)
    c = service.connect()
    c.create("/p", b"")
    c.create("/p/kid", b"")
    c.get_data("/p")
    c.get_children("/p")
    assert c._cache.misses == 2  # distinct entries per watch type
    assert c.get_children("/p") == ["kid"]
    assert c._cache.hits == 1


def test_other_clients_write_invalidates_via_watch():
    cloud, service = cached_service(seed=304)
    reader, writer = service.connect(), service.connect()
    writer.create("/a", b"v0")
    assert reader.get_data("/a")[0] == b"v0"   # cached
    writer.set_data("/a", b"v1")
    settle(cloud)  # watch fan-out delivers, entry invalidated
    assert len(reader._cache) == 0
    assert reader.get_data("/a")[0] == b"v1"   # miss: re-fetch + re-arm
    assert reader.get_data("/a")[0] == b"v1"   # hit again
    assert reader._cache.invalidations >= 1


def test_children_entry_invalidated_by_sibling_create():
    cloud, service = cached_service(seed=305)
    reader, writer = service.connect(), service.connect()
    writer.create("/p", b"")
    writer.create("/p/a", b"")
    assert reader.get_children("/p") == ["a"]
    writer.create("/p/b", b"")
    settle(cloud)
    assert reader.get_children("/p") == ["a", "b"]


def test_read_your_writes_through_cache_shards1():
    cloud, service = cached_service(seed=306)
    c = service.connect()
    c.create("/a", b"v0")
    c.get_data("/a")               # cache v0
    c.set_data("/a", b"v1")        # own write invalidates before the watch
    assert c.get_data("/a")[0] == b"v1"
    assert c.get_data("/a")[0] == b"v1"


def test_read_your_writes_through_cache_shards4():
    cloud, service = cached_service(seed=307, leader_shards=4)
    c = service.connect()
    for i in range(4):
        c.create(f"/t{i}", b"")
    for i in range(4):
        c.get_data(f"/t{i}")
    for i in range(4):
        c.set_data(f"/t{i}", f"new{i}".encode())
    for i in range(4):
        assert c.get_data(f"/t{i}")[0] == f"new{i}".encode()


def test_read_your_writes_under_coalesced_writes():
    """Sharded pipeline: a pipelined burst to one path with a read issued
    behind it; the cached entry must never serve an acknowledged-but-
    superseded value."""
    cloud, service = cached_service(seed=308, leader_shards=4)
    c = service.connect()
    c.create("/hot", b"")
    c.get_data("/hot")  # warm the cache
    futures = [c.set_data_async("/hot", f"v{i}".encode()) for i in range(6)]
    future = c.get_data_async("/hot")
    for f in futures:
        f.wait()
    data, _stat = future.wait()
    assert data == b"v5"
    assert c.get_data("/hot")[0] == b"v5"


def test_multi_invalidates_written_paths():
    cloud, service = cached_service(seed=309)
    c = service.connect()
    c.create("/m", b"")
    c.create("/m/a", b"old")
    c.get_data("/m/a")
    c.get_children("/m")
    with c.transaction() as tx:
        tx.set_data("/m/a", b"new")
        tx.create("/m/b", b"")
    assert c.get_data("/m/a")[0] == b"new"
    assert c.get_children("/m") == ["a", "b"]


def test_delete_invalidates_node_and_parent():
    cloud, service = cached_service(seed=310)
    c = service.connect()
    c.create("/p", b"")
    c.create("/p/kid", b"x")
    c.get_data("/p/kid")
    c.get_children("/p")
    c.delete("/p/kid")
    assert c.exists("/p/kid") is None
    assert c.get_children("/p") == []


# ---------------------------------------------------------------- Z4 gate
def test_z4_stall_on_cached_entry_with_undelivered_notification():
    """A cache hit must replay the epoch stall: when the cached image's
    epoch set carries one of this session's undelivered watch ids, the hit
    blocks until that notification arrives (Z4), exactly like an uncached
    read would."""
    cloud, service = cached_service(seed=311)
    watcher, writer = service.connect(), service.connect()
    events = []
    assert watcher.exists("/x", watch=events.append) is None
    wid = next(iter(watcher._registered))       # the undelivered watch id

    writer.create("/b", b"payload")
    watcher.get_data("/b")                      # cached entry for /b
    # Model an image written while wid's notification was in flight: epoch
    # carries the wid and the write is not older than everything delivered.
    entry = watcher._cache._entries[("/b", WatchType.DATA.value)]
    entry.image["epoch"] = [wid]
    entry.image["modified_tx"] = watcher.mrd + 1000

    future = watcher.get_data_async("/b")
    cloud.run(until=cloud.now + 10_000)
    assert not future.done                      # hit is stalled on wid
    writer.create("/x", b"")                    # fires the exists watch
    settle(cloud, 5_000)
    assert future.done and len(events) == 1     # delivered, then released
    assert watcher._cache.hits >= 1


def test_user_watch_on_hit_bypasses_entry_with_consumed_guard():
    """A read that sets a user watch must not be served from an entry whose
    guarding watch was already consumed: the fresh watch sits on a new
    instance and would never fire for the change the cached image predates
    — the caller would hold stale data AND miss its notification."""
    cloud, service = cached_service(seed=319)
    reader, writer = service.connect(), service.connect()
    writer.create("/a", b"v0")
    reader.get_data("/a")                       # cached, guarded by W1

    # Hold watch deliveries to the reader: W1's consume commits server-side
    # but its notification stays in flight.
    original = service.notify_watch_process
    held = []

    def holding(session, watch_id, event):
        if session == reader.session_id:
            held.append((watch_id, event))
            return
            yield  # pragma: no cover - generator marker
        yield from original(session, watch_id, event)

    service.notify_watch_process = holding
    writer.set_data("/a", b"v1")
    settle(cloud)
    assert len(reader._cache) == 1              # invalidation still in flight
    service.notify_watch_process = original

    events = []
    data, _stat = reader.get_data("/a", watch=events.append)
    assert data == b"v1"                        # bypassed the doomed entry
    writer.set_data("/a", b"v2")
    settle(cloud)
    assert len(events) == 1                     # fresh watch fires normally


def test_multi_check_op_does_not_invalidate():
    """CheckOp members write nothing: a successful multi must not evict the
    guard path's still-valid entry (that would force a spurious miss plus a
    watch re-registration storage write)."""
    cloud, service = cached_service(seed=320)
    c = service.connect()
    c.create("/guard", b"g")
    c.create("/other", b"")
    c.get_data("/guard")
    hits_before = c._cache.hits
    with c.transaction() as tx:
        tx.check("/guard")
        tx.set_data("/other", b"x")
    assert c.get_data("/guard")[0] == b"g"
    assert c._cache.hits == hits_before + 1     # still a hit, no re-fetch


def test_fanout_race_does_not_admit_consumed_entry():
    """If the guarding watch fires while the miss's storage read is in
    flight, the image must not be admitted — its invalidation channel is
    already consumed and the entry could never be dropped."""
    cloud, service = cached_service(seed=312)
    c = service.connect()
    c.create("/a", b"v0")
    c.get_data("/a")                            # registers the DATA watch
    wid = c._watch_ids[("/a", WatchType.DATA.value)]
    c._cache.clear()                            # entry gone, watch armed
    c._delivered.add(wid)                       # delivery won the race
    c.get_data("/a")
    assert len(c._cache) == 0                   # not admitted


# ---------------------------------------------------------------- lifecycle
def test_cache_cleared_across_close():
    cloud, service = cached_service(seed=313)
    c = service.connect()
    c.create("/a", b"x")
    c.get_data("/a")
    assert len(c._cache) == 1
    c.close()
    assert len(c._cache) == 0
    with pytest.raises(SessionClosedError):
        c.get_data("/a")


def test_cache_cleared_on_eviction():
    cloud, service = cached_service(seed=314)
    c = service.connect()
    c.create("/a", b"x")
    c.get_data("/a")
    assert len(c._cache) == 1
    c.alive = False
    cloud.run(until=cloud.now + 3 * 60_000)
    assert c.closed
    assert len(c._cache) == 0


# ---------------------------------------------------------------- bounds
def test_lru_entry_bound_evicts_oldest():
    cloud, service = make_service(seed=315, client_cache_entries=2)
    c = service.connect()
    for name in ("a", "b", "c"):
        c.create(f"/{name}", name.encode())
        c.get_data(f"/{name}")
    assert len(c._cache) == 2
    assert c._cache.evictions == 1
    assert c._cache.lookup("/a", WatchType.DATA) is None  # the LRU victim


def test_config_rejects_negative_cache_knobs():
    with pytest.raises(ValueError):
        FaaSKeeperConfig(client_cache_entries=-1)


# ---------------------------------------------------------------- accounting
def test_cost_breakdown_reports_cache_counters():
    cloud, service = cached_service(seed=317)
    c = service.connect()
    c.create("/a", b"x")
    c.get_data("/a")
    c.get_data("/a")
    c.get_data("/a")
    breakdown = service.cost_breakdown()
    assert breakdown["client_cache_misses"] == 1
    assert breakdown["client_cache_hits"] == 2


def test_cache_saves_user_store_cost():
    def run(entries):
        cloud, service = make_service(seed=318, client_cache_entries=entries)
        c = service.connect()
        c.create("/a", b"x" * 512)
        for _ in range(30):
            c.get_data("/a")
        return service.cost_breakdown()["user_store"]

    assert run(64) < run(0)
