"""Ratchet on what one client operation costs the simulator.

ROADMAP item 2(e): an operation is one coroutine whose completion handle is
its own process, and the read core pays only for what the read uses.  The
numbers below are what the tree costs today on the paper's default
deployment (one session, S3 user store, client cache off), counted in
``Environment.step`` entries — kernel events — and in memory blocks, and
what one heartbeat sweep visits, in session keys and kernel events, and
holds at its peak, in bytes.  A PR that makes an operation cheaper lowers
them here; nothing may raise them.  So does joining a watch instance,
counted in the sizing calls it makes.
"""

import gc
import os
import tracemalloc

import pytest

from repro.cloud import expressions
from repro.cloud.sanitize import SanitizerError
from repro.faaskeeper.layout import SYSTEM_SESSIONS
from repro.faaskeeper.model import WatchType

from ..helpers.footprint import bytes_and_blocks_per, peak_bytes_per
from ..helpers.stepcount import StepCounting
from .conftest import make_service

#: A warm read: process start, storage round trip, client-library overhead,
#: completion.  (The parent of this file paid a fifth, fired for nobody.)
READ_EVENTS = 4
#: A warm ``set_data`` through to a quiet pipeline, each event with the
#: coroutine it resumes.  A process is made only where two things run at
#: once, so the whole write is three of them — the client request and the
#: two queue dispatchers, each running its function's invocation itself.
#: (Was 31: a process start and a termination per invocation, those two
#: and an ``AllOf`` for the one image the leader replicates, and a per-request
#: "sent" event that fired for nobody.)
SET_DATA_OWNERS = (
    ("client request", ("start", "session-queue send")),
    ("session-queue dispatcher", ("wake on the message",)),
    ("  follower invocation", (
        "trigger latency", "sandbox overhead", "base compute", "lock node",
        "encode", "leader-queue send", "commit transaction")),
    ("leader-queue dispatcher", ("wake on the message",)),
    ("  leader invocation", (
        "trigger latency", "sandbox overhead", "base compute", "get node",
        "encode", "S3 download", "S3 upload", "watch query", "notify client",
        "pop transaction")),
    ("client request", ("wake on the reply", "completion")),
)
SET_DATA_EVENTS = sum(len(events) for _owner, events in SET_DATA_OWNERS)
assert SET_DATA_EVENTS == 23
#: What a completed read leaves allocated while its handle is kept: the
#: handle, its process, the process's generator, the ``(data, stat)`` pair,
#: the stat and one int.  The tenth is the list the test keeps them in.
#: (Was 7.0 with a handle that owned a dict and an event of its own.)
READ_BLOCKS = 6.1
#: Keys one heartbeat shard's sweep visits, as a share of an even split of
#: the session table: its own slice (crc32 spreads ~N/8 +- a few percent).
#: (Was 8.0: every sweep walked the whole table to pick its slice out.)
SWEEP_SLICE_SHARE = 1.15
#: Kernel events of one heartbeat sweep over idle sessions at one shard,
#: whatever their number: the invocation's start, sandbox overhead and base
#: compute, the scan's round trip, the replies (one timer train, its elements
#: fired inline: one step), the last reply's wakeup and the completion.
#: (Was 2 006 at 2 000 sessions: a reply timer per session.)
SWEEP_EVENTS = 7
#: Traced bytes a warm ``set_data`` leaves allocated once its pipeline is
#: quiet: the packed ``durations_ms`` sample of each of its invocations,
#: ~2 doubles (~23 B on the default deployment, ~33 B with the distributor,
#: with the arrays' spare capacity).  (Was 92 B and 109 B: a packed sample
#: per timing probe too; before that 339 B and 494 B, a float object and a
#: list slot per sample, and a landed txid per region on the visibility
#: board.)
WRITE_RETAINED_BYTES = 48
#: Traced bytes per session at the peak of one sweep over idle sessions at
#: one shard, above what the registered sessions hold: the scan's key map of
#: the stored (frozen) records, the ping order and the timer train's times
#: and order.  It reads 130 B on CPython 3.11-3.13, 139 B on 3.10.  (Was
#: 162 B on 3.11, 172 B on 3.10: the reply delays as a list beside the
#: train's own times; before that 338 B and 396 B, the scan handed out a
#: projected ``{"ephemeral": ...}`` dict per session.)
SWEEP_PEAK_BYTES = 188
#: ``_value_size_bytes`` calls of one join of a watch instance (a client
#: cache miss), whatever the number of sessions the instance lists: the
#: session name it appends.  (Was 2N + 15 at N listed sessions: the whole
#: ``inst`` attribute sized before and after the update.)
JOIN_SIZINGS = 1


@pytest.fixture
def warm():
    """(cloud, client) of a default deployment with ``/a`` and ``/a/b``
    written and read once and the pipeline drained; kernel events are
    counted from here."""
    cloud, service = make_service(seed=7)
    client = service.connect()
    client.create("/a", b"x" * 1024)
    client.create("/a/b", b"")
    client.set_data("/a", b"y" * 1024)
    client.get_data("/a")
    cloud.run(until=cloud.now + 1_000)
    cloud.env.__class__ = StepCounting
    return cloud, client


def _events(cloud, operation) -> int:
    """Kernel events of ``operation``, with what it left in the wakeup lane
    (``wait()`` returns the moment the handle fires)."""
    before = cloud.env.steps
    operation()
    cloud.run(until=cloud.now)
    return cloud.env.steps - before


def test_a_warm_read_is_four_kernel_events(warm):
    cloud, client = warm
    assert _events(cloud, lambda: client.get_data("/a")) == READ_EVENTS


@pytest.mark.parametrize("facade", ["exists", "get_children", "get_acl"])
def test_every_read_facade_costs_what_get_data_costs(warm, facade):
    cloud, client = warm
    assert _events(cloud, lambda: getattr(client, facade)("/a")) == READ_EVENTS


def test_no_event_of_a_read_fires_for_nobody(warm):
    """Driven the way ``perf/`` drives it — a sim process yielding the
    operation's handle — every kernel event of a read has a callback: the
    fourth one resumes the caller."""
    cloud, client = warm
    env = cloud.env
    reads, counted = 50, []

    def session():
        steps, idle = env.steps, env.idle
        for _ in range(reads):
            data, stat = yield client.get_data_async("/a").event
            assert len(data) == stat.data_length == 1024
        counted.append((env.steps - steps, env.idle - idle))

    env.run(until=env.process(session()))
    assert counted == [(reads * READ_EVENTS, 0)]


def test_a_warm_set_data_is_this_many_kernel_events(warm):
    cloud, client = warm

    def write_and_drain():
        client.set_data("/a", b"z" * 1024)
        cloud.run(until=cloud.now + 400)  # the leader's tail; no cron is due

    events = [_events(cloud, write_and_drain) for _ in range(3)]
    print(f"warm set_data: {events[0]} kernel events")
    for owner, owned in SET_DATA_OWNERS:
        print(f"  {owner:26s}{len(owned):3d}  {', '.join(owned)}")
    assert events == [SET_DATA_EVENTS] * 3


def test_no_event_of_a_write_fires_for_nobody(warm):
    """Driven the way ``perf/`` drives it, every kernel event of a write
    resumes somebody.  (The parent of this file fired one idle "sent" event
    per request: 50 of them here.)"""
    cloud, client = warm
    env = cloud.env
    writes, counted = 50, []
    version = client.exists("/a").version

    def session():
        steps, idle = env.steps, env.idle
        for n in range(1, writes + 1):
            result = yield client.set_data_async("/a", b"w" * 1024).event
            assert result.version == version + n
        yield env.timeout(400)  # the last write's tail in the leader
        counted.append((env.steps - steps - 1, env.idle - idle))

    env.run(until=env.process(session()))
    print(f"{writes} warm set_data: {counted[0][0]} kernel events, "
          f"{counted[0][1]} idle")
    assert counted == [(writes * SET_DATA_EVENTS, 0)]


def test_fan_out_costs_a_process_per_member(warm):
    """Where two things do run at once the processes are made: a ``create``
    replicates the node and its parent side by side, a two-region
    ``set_data`` one image per region.  Printed, not ratcheted — the N >= 2
    path is the parent's."""
    cloud, client = warm

    def create_and_drain():
        client.create("/a/c", b"")
        cloud.run(until=cloud.now + 400)

    created = _events(cloud, create_and_drain)
    print(f"warm create (node + parent replicated): {created} kernel events")

    cloud, service = make_service(seed=7,
                                  regions=["us-east-1", "eu-central-1"])
    client = service.connect()
    client.create("/a", b"x" * 1024)
    client.set_data("/a", b"y" * 1024)
    cloud.run(until=cloud.now + 1_000)
    cloud.env.__class__ = StepCounting

    def write_and_drain():
        client.set_data("/a", b"z" * 1024)
        cloud.run(until=cloud.now + 400)

    two_regions = _events(cloud, write_and_drain)
    print(f"warm set_data, two regions: {two_regions} kernel events")
    # three events per spawned member (start, end, a share of the AllOf) and
    # the members' own storage round trips on top of the one-image write
    assert created > SET_DATA_EVENTS + 3 and two_regions > SET_DATA_EVENTS + 3


@pytest.mark.parametrize("config", [
    {}, dict(distributor_enabled=True, leader_shards=4),
], ids=["default", "distributor_on_commit_4_shards"])
def test_a_write_leaves_this_many_bytes(config, monkeypatch):
    """2 000 sequential warm writes, traced from after a warm-up through a
    drained pipeline.  Unsanitized: ``FK_SANITIZE=1`` keeps snapshots."""
    monkeypatch.delenv("FK_SANITIZE", raising=False)
    writes = 2000
    cloud, service = make_service(seed=7, **config)
    client = service.connect()
    client.create("/a", b"x" * 1024)
    for _ in range(50):
        client.set_data("/a", b"y" * 1024)
    cloud.run(until=cloud.now + 1_000)
    gc.collect()
    tracemalloc.start()
    try:
        for _ in range(writes):
            client.set_data("/a", b"z" * 1024)
        cloud.run(until=cloud.now + 1_000)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] / writes
    finally:
        tracemalloc.stop()
    print(f"warm set_data, retained: {retained:.0f} B per write")
    assert retained <= WRITE_RETAINED_BYTES


class _Walked(dict):
    """A key map that counts the keys every walk over it yields."""

    walked = 0

    def __iter__(self):
        for key in super().__iter__():
            self.walked += 1
            yield key


def test_a_sweep_visits_only_its_slice(monkeypatch):
    """One shard's heartbeat sweep at 8 shards visits the session keys of
    its own slice, about N/8, and none of the others.  Unsanitized:
    ``FK_SANITIZE=1`` re-walks the table on purpose."""
    monkeypatch.delenv("FK_SANITIZE", raising=False)
    sessions, shards, shard = 2000, 8, 3
    cloud, service = make_service(seed=7, user_store="mem",
                                  session_plane_shards=shards)
    service.connect_many(sessions)
    sweep = service.heartbeat_fns[shard]
    cloud.run_process(sweep.run(None))  # the first sweep of a split builds its index
    table = service.system_store.table(SYSTEM_SESSIONS)
    table._items = _Walked(table._items)
    index = table._segments[shards] = [_Walked(s) for s in table._segments[shards]]
    report = cloud.run_process(sweep.run(None))
    visited = table._items.walked + sum(s.walked for s in index)
    print(f"a shard's sweep at {shards} shards: {visited} keys visited of "
          f"{sessions} (its slice: {len(index[shard])})")
    assert visited == len(index[shard]) == report["checked"]
    assert visited <= SWEEP_SLICE_SHARE * sessions / shards


def test_a_sweep_is_this_many_kernel_events_at_any_size():
    for sessions in (200, 2000):
        cloud, service = make_service(seed=7, user_store="mem")
        service.connect_many(sessions)
        sweep = service.heartbeat_fns[0]
        cloud.env.__class__ = StepCounting
        report = cloud.run_process(sweep.run(None))
        print(f"a sweep over {sessions} idle sessions: {cloud.env.steps} kernel events")
        assert report == {"checked": sessions, "evicted": 0}
        assert cloud.env.steps == SWEEP_EVENTS


@pytest.mark.skipif(bool(os.environ.get("FK_SANITIZE")),
                    reason="sanitizer snapshots are not the subject")
def test_a_sweep_peaks_at_this_many_bytes_per_session():
    sessions = 4000
    cloud, service = make_service(seed=7, user_store="mem")
    service.connect_many(sessions)
    sweep = service.heartbeat_fns[0]

    def sweep_once():
        report = cloud.run_process(sweep.run(None))
        assert report == {"checked": sessions, "evicted": 0}

    peak = peak_bytes_per(sessions, sweep_once,
                          f"a sweep over {sessions} idle sessions, transient")
    assert peak <= SWEEP_PEAK_BYTES


def test_a_sweep_scan_reads_through_the_sanitizer(monkeypatch):
    """The scan's tight loop still reads each session through ``Table._get``
    under ``FK_SANITIZE=1``: a session image mutated in place after
    ``_store`` trips the next sweep."""
    monkeypatch.setenv("FK_SANITIZE", "1")
    cloud, service = make_service(seed=7, user_store="mem")
    clients = service.connect_many(20)
    sweep = service.heartbeat_fns[0]
    assert cloud.run_process(sweep.run(None))["checked"] == 20
    table = service.system_store.table(SYSTEM_SESSIONS)
    table.raw(clients[7].session_id)["last_rid"] = 99  # breaks the image discipline
    with pytest.raises(SanitizerError, match="mutated in place"):
        cloud.run_process(sweep.run(None))


def test_a_completed_read_keeps_this_many_blocks():
    _cloud, service = make_service(seed=7)
    client = service.connect()
    client.create("/a", b"x" * 1024)
    client.get_data("/a")

    def read(n):
        futures = []
        for _ in range(n):  # one at a time: the session is a closed loop
            futures.append(client.get_data_async("/a"))
            futures[-1].wait()
        return futures

    footprint = bytes_and_blocks_per(500, read, "completed read, handle kept")
    assert footprint.blocks <= READ_BLOCKS, \
        f"largest sites per read: {footprint.top()}"


def test_a_watch_join_sizes_only_the_session_it_adds(monkeypatch):
    """Joining an instance that lists 1 session and one that lists 200
    make the same sizing calls.  Unsanitized: ``FK_SANITIZE=1`` re-walks
    every stored image on purpose."""
    monkeypatch.delenv("FK_SANITIZE", raising=False)
    real, counts = expressions._value_size_bytes, []
    for listed in (1, 200):
        cloud, service = make_service(seed=7, user_store="mem")
        registry, ctx = service.watch_registry, service.system_ctx
        for i in range(listed):
            cloud.run_process(registry.register(ctx, "/a", WatchType.DATA, f"s{i}"))
        calls = []
        monkeypatch.setattr(expressions, "_value_size_bytes",
                            lambda value: calls.append(value) or real(value))
        cloud.run_process(registry.register(ctx, "/a", WatchType.DATA, "joiner"))
        monkeypatch.setattr(expressions, "_value_size_bytes", real)
        print(f"a join of an instance listing {listed}: {len(calls)} sizing calls")
        counts.append(len(calls))
    assert counts == [JOIN_SIZINGS, JOIN_SIZINGS]
