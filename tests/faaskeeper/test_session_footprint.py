"""An idle session costs (almost) nothing: the session plane is pay-per-use.

Everything a session owns — its queue's RNG stream, buffer and dispatcher,
the client's containers — is allocated by the session's first *use*, and a
closed session gives everything back.  These tests hold the line in bytes.
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

#: Budget for one registered, idle session (record, queue, client and the
#: dict entries that index them).  ~1.2 kB on CPython 3.10-3.12; the seed
#: of this test read 7 756 B / 48 blocks.
IDLE_SESSION_BYTES = 4096
IDLE_SESSION_BLOCKS = 36


@pytest.mark.skipif(bool(os.environ.get("FK_SANITIZE")),
                    reason="sanitizer snapshots are not the subject")
def test_idle_session_fits_the_budget():
    cloud, service = make_service(seed=7, user_store="mem",
                                  session_plane_shards=8)
    size, blocks = bytes_and_blocks_per(2000, service.connect_many)
    assert size <= IDLE_SESSION_BYTES
    assert blocks <= IDLE_SESSION_BLOCKS
    # and the reason: no stream, no dispatcher, no buffer, no containers
    client = service.clients["s1"]
    assert f"queue:{client.queue.name}" not in cloud.rng
    assert not client.queue._dispatching
    assert client.queue._buffer._items is None
    assert not {"_pending", "_registered", "_delivered", "_listeners",
                "watch_events", "retry"} & set(vars(client))


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
    session state: what still grows per *operation* — function duration
    samples, ROADMAP item 4 — would swamp an empty deployment's total.)"""
    tracemalloc.start()
    try:
        # storage faults pinned off: the subject is session state, and a
        # system-store breaker OPEN flips all 2 000 resident sessions.
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
    assert len(service.clients) == len(service._session_queues) == 2000
    assert _live(FaaSKeeperClient) == _live(FifoQueue) - len(
        service.leader_queues) == len(resident)
    streams = [name for name in cloud.rng._streams
               if name.startswith("queue:fk-session-")]
    assert streams == []
