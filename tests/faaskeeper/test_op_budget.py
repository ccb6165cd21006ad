"""Ratchet on what one client operation costs the simulator.

ROADMAP item 2(e): an operation is one coroutine whose completion handle is
its own process, and the read core pays only for what the read uses.  The
numbers below are what the tree costs today on the paper's default
deployment (one session, S3 user store, client cache off), counted in
``Environment.step`` entries — kernel events — and in memory blocks.  A PR
that makes an operation cheaper lowers them here; nothing may raise them.
"""

import pytest

from ..helpers.footprint import bytes_and_blocks_per
from ..helpers.stepcount import StepCounting
from .conftest import make_service

#: A warm read: process start, storage round trip, client-library overhead,
#: completion.  (The parent of this file paid a fifth, fired for nobody.)
READ_EVENTS = 4
#: A warm ``set_data`` through to a quiet pipeline, each event with the
#: coroutine it resumes.  A process is made only where two things run at
#: once, so the whole write is three of them — the client request and the
#: two queue dispatchers, each running its function's invocation itself.
#: (Was 31: an ``Initialize`` and a termination per invocation, those two
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


@pytest.fixture
def warm():
    """(cloud, client) of a default deployment, pinned off the CI legs'
    environment overrides, with ``/a`` and ``/a/b`` written and read once and
    the pipeline drained; kernel events are counted from here."""
    cloud, service = make_service(seed=7, storage_fault_rate=0.0,
                                  outbox_enabled=False)
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

    cloud, service = make_service(
        seed=7, storage_fault_rate=0.0, outbox_enabled=False,
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


def test_a_completed_read_keeps_this_many_blocks():
    _cloud, service = make_service(seed=7, storage_fault_rate=0.0,
                                   outbox_enabled=False)
    client = service.connect()
    client.create("/a", b"x" * 1024)
    client.get_data("/a")

    def read(n):
        futures = []
        for _ in range(n):  # one at a time: the session is a closed loop
            futures.append(client.get_data_async("/a"))
            futures[-1].wait()
        return futures

    _size, blocks = bytes_and_blocks_per(500, read, "completed read, handle kept")
    assert blocks <= READ_BLOCKS
