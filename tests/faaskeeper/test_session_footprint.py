"""An idle session costs (almost) nothing: the session plane is pay-per-use.

Everything a session owns — its queue (with the queue's RNG stream, buffer
and dispatcher), the client's containers — is allocated by the session's
first *use*, and a closed session gives everything back.  These tests hold
the line in bytes.
"""

import gc
import os
import tracemalloc

import pytest

from repro.cloud.queues import FifoQueue
from repro.faaskeeper.client import FaaSKeeperClient
from repro.faaskeeper.model import KeeperState
from repro.faaskeeper.retry import BREAKER_OPEN
from ..helpers.footprint import bytes_and_blocks_per
from .conftest import make_service

#: Budget for one registered, idle session (its record, its client and the
#: dict entries that index them; no queue).  ~660 B, 7.1 blocks and 4
#: GC-tracked objects on CPython 3.10-3.12; the seed of this test read
#: 7 756 B / 48 blocks, and a session with its queue made at connect
#: 1 132 B / 12.1 blocks / 7 objects.  GC-tracked objects are what every
#: full collection walks, once per session.
IDLE_SESSION_BYTES = 900
IDLE_SESSION_BLOCKS = 9
IDLE_SESSION_OBJECTS = 5


def _session_queues(cloud):
    return [name for name in cloud._queues if name.startswith("fk-session-")]


@pytest.mark.skipif(bool(os.environ.get("FK_SANITIZE")),
                    reason="sanitizer snapshots are not the subject")
def test_idle_session_fits_the_budget():
    cloud, service = make_service(seed=7, user_store="mem",
                                  session_plane_shards=8)
    size, blocks, objects = bytes_and_blocks_per(2000, service.connect_many)
    assert size <= IDLE_SESSION_BYTES
    assert blocks <= IDLE_SESSION_BLOCKS
    assert objects <= IDLE_SESSION_OBJECTS
    # and the reason: no queue, no containers (reading ``client.queue``
    # would make the queue, so the probe looks at the instance dict)
    client = service.clients["s1"]
    assert not {"queue", "_pending", "_registered", "_delivered",
                "_listeners", "retry", "busy_retry"} & set(vars(client))
    assert _session_queues(cloud) == []


def test_a_session_queue_is_made_by_its_first_request():
    cloud, service = make_service(seed=7, user_store="mem")
    fleet = service.connect_many(20)
    assert _session_queues(cloud) == []
    assert service._session_queues == {}
    writer = fleet[3]
    writer.create("/a", b"x")
    assert _session_queues(cloud) == [f"fk-session-{writer.session_id}"]
    assert service._session_queues == {writer.session_id: writer.queue}
    assert writer.queue.sent == 1
    assert not any("queue" in vars(c) for c in fleet if c is not writer)


def _left_nothing_behind(cloud, service, client):
    name = f"fk-session-{client.session_id}"
    assert name not in cloud._queues
    assert f"queue:{name}" not in cloud.rng
    assert client.session_id not in service.clients
    assert client.session_id not in service._session_queues


def test_a_never_used_session_is_evicted_and_leaves_nothing():
    cloud, service = make_service(seed=7, user_store="mem",
                                  storage_fault_rate=0.0)
    keeper, ghost = service.connect_many(2)
    ghost.alive = False
    cloud.run(until=cloud.now + 3 * 60_000)
    assert ghost.closed and ghost.evicted
    # the eviction made the queue, sent the close into it, and the close
    # deleted it again
    queue = vars(ghost)["queue"]
    assert queue.sent == 1 and queue._buffer is None
    _left_nothing_behind(cloud, service, ghost)
    assert "queue" not in vars(keeper) and not keeper.closed


def test_a_never_used_session_closes_and_leaves_nothing():
    cloud, service = make_service(seed=7, user_store="mem",
                                  storage_fault_rate=0.0)
    keeper, idle = service.connect_many(2)
    idle.close()
    cloud.run(until=cloud.now + 1_000)
    assert idle.closed and not idle.evicted
    _left_nothing_behind(cloud, service, idle)
    assert service._session_queues == {}
    assert "queue" not in vars(keeper)


def test_state_flip_allocates_nothing_on_a_listenerless_session():
    """A breaker OPEN suspends every session at once: the transition must
    not create the listener list of sessions that registered none."""
    _cloud, service = make_service(seed=7, user_store="mem")
    fleet = service.connect_many(20)
    seen = []
    fleet[0].add_listener(seen.append)
    service._on_breaker_transition("system", "us-east-1", BREAKER_OPEN)
    assert all(c.state == KeeperState.SUSPENDED for c in fleet)
    for client in fleet:
        client._transition(KeeperState.CONNECTED)
    assert seen == [KeeperState.SUSPENDED, KeeperState.CONNECTED]
    assert not any("_listeners" in vars(c) for c in fleet[1:])


def _live(kind) -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is kind)


def test_session_churn_does_not_grow_the_deployment():
    """connect 500 -> close all -> drain, five rounds, beside a resident
    fleet of 2 000 idle sessions: traced memory after round 5 stays within
    10 % of after round 2, and no closed session's queue, client, stream
    or registry entry survives.  (The resident fleet keeps the bound about
    session state: what still grows per *operation* — the functions'
    packed timing samples, 8 bytes a probe until ROADMAP item 3's span
    ring, and each client's set of delivered watch ids — would swamp an
    empty deployment's total.)"""
    tracemalloc.start()
    try:
        # storage faults pinned off: the subject is session state, and an
        # armed store tokens every mutation, whose ledger entries outlive
        # these five 90 s rounds (the ledger turns over every 10 minutes).
        cloud, service = make_service(seed=7, user_store="mem",
                                      session_plane_shards=8,
                                      storage_fault_rate=0.0)
        resident = service.connect_many(2000)
        after = []
        for _round in range(5):
            closing = [c.close_async() for c in service.connect_many(500)]
            for future in closing:
                future.wait()
            del closing, future
            cloud.run(until=cloud.now + 90_000)     # drain: > one sweep each
            gc.collect()
            after.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    print(f"churn: traced bytes after each round {after}")
    assert after[4] <= 1.10 * after[1]
    # the resident fleet is idle: it owns no queue
    assert len(service.clients) == len(resident) == 2000
    assert service._session_queues == {}
    assert _live(FaaSKeeperClient) == len(resident)
    assert _live(FifoQueue) == len(service.leader_queues)
    assert _session_queues(cloud) == []
    streams = [name for name in cloud.rng._streams
               if name.startswith("queue:fk-session-")]
    assert streams == []
