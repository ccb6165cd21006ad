"""An idle session costs (almost) nothing: the session plane is pay-per-use.

Everything a session owns — its queue (with the queue's RNG stream, buffer
and dispatcher), the client's containers, a session record of its own rather
than its registration batch's shared one — is allocated by the session's
first *use*, and a closed session gives everything back.  These tests hold
the line in bytes.
"""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.cloud.queues import FifoQueue
from repro.faaskeeper.client import FaaSKeeperClient
from repro.faaskeeper.model import KeeperState
from ..helpers.footprint import bytes_and_blocks_per
from .conftest import make_service

#: Budget for one registered, idle session (its client, its table entry and
#: the dict entries that index them; no queue, and no record of its own: the
#: sessions of one registration batch share one frozen record image).  On
#: CPython 3.11 it reads 425 B, 4.2 blocks and 2.1 GC-tracked objects (3.10:
#: 522 B / 5.2 / 3.1, the most; 3.12: 409 B).  A private record per session
#: read 656 B / 7.1 / 4 on 3.11, the seed of this test 7 756 B / 48 blocks,
#: and a session with its queue made at connect 1 132 B / 12.1 blocks / 7
#: objects.  GC-tracked objects are what every full collection walks, once
#: per session.
IDLE_SESSION_BYTES = 600
IDLE_SESSION_BLOCKS = 6
IDLE_SESSION_OBJECTS = 4


#: Every package a simulation may import; the import-floor probe loads them
#: all in a fresh interpreter.
PACKAGES = ("repro", "repro.cloud", "repro.faaskeeper", "repro.faaskeeper.swarm",
            "repro.zookeeper", "repro.workloads", "repro.primitives",
            "repro.costmodel", "repro.analysis")
#: Modules that map OpenSSL: ``hashlib`` always loads ``_hashlib``, 3.4-3.9 MB
#: of resident libcrypto, and the stream seeds hash with the builtin digest.
CRYPTO_MODULES = {"hashlib", "_hashlib", "ssl", "_ssl"}
#: Run as ``python -c PROBE PACKAGE...``.  The peak is the child's own: a
#: Linux ``ru_maxrss`` keeps the parent's high-water mark across exec (a
#: child of pytest reads ~37 MB), ``VmHWM`` is the new image's alone.
_IMPORT_FLOOR_PROBE = f"""
import importlib, json, resource, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
try:
    with open("/proc/self/status") as status:
        peak_kb = int(next(line.split()[1] for line in status
                           if line.startswith("VmHWM:")))
except OSError:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
crypto = sorted(set(sys.modules).intersection({sorted(CRYPTO_MODULES)!r}))
print(json.dumps({{"crypto": crypto, "peak_kb": peak_kb}}))
"""


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
    cloud, service = make_service(seed=7, user_store="mem")
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
    cloud, service = make_service(seed=7, user_store="mem")
    keeper, idle = service.connect_many(2)
    idle.close()
    cloud.run(until=cloud.now + 1_000)
    assert idle.closed and not idle.evicted
    _left_nothing_behind(cloud, service, idle)
    assert service._session_queues == {}
    assert "queue" not in vars(keeper)


def test_state_flip_allocates_nothing_on_a_listenerless_session():
    """A fleet suspended and healed at once: the transitions must not
    create the listener list of sessions that registered none."""
    _cloud, service = make_service(seed=7, user_store="mem")
    fleet = service.connect_many(20)
    seen = []
    fleet[0].add_listener(seen.append)
    for client in fleet:
        client._transition(KeeperState.SUSPENDED)
    assert all(c.state == KeeperState.SUSPENDED for c in fleet)
    for client in fleet:
        client._transition(KeeperState.CONNECTED)
    assert seen == [KeeperState.SUSPENDED, KeeperState.CONNECTED]
    assert not any("_listeners" in vars(c) for c in fleet[1:])


def _live(kind) -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is kind)


def _churn(fault_rate):
    """connect 500 -> close all -> drain, five rounds, beside a resident
    fleet of 2 000 idle sessions; returns the deployment, the fleet and the
    traced bytes after each round."""
    tracemalloc.start()
    try:
        cloud, service = make_service(seed=7, user_store="mem",
                                      session_plane_shards=8)
        if fault_rate:
            service.arm_storage_faults(fault_rate)
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
    return cloud, service, resident, after


def _assert_churn_left_nothing(cloud, service, resident, after):
    assert after[4] <= 1.10 * after[1]
    # the resident fleet is idle: it owns no queue
    assert len(service.clients) == len(resident) == 2000
    assert service._session_queues == {}
    assert _live(FaaSKeeperClient) == len(resident)
    assert _live(FifoQueue) == sum(1 for s in service.stages if s.queue)
    assert _session_queues(cloud) == []
    streams = [name for name in cloud.rng._streams
               if name.startswith("queue:fk-session-")]
    assert streams == []


def test_session_churn_does_not_grow_the_deployment():
    """Five churn rounds (:func:`_churn`): traced memory after round 5
    stays within 10 % of after round 2, and no closed session's queue,
    client, stream or registry entry survives.  (The resident fleet keeps
    the bound about session state: what still grows per *operation* — the
    functions' packed timing samples, 8 bytes a probe until ROADMAP item
    3's span ring, and each client's set of delivered watch ids — would
    swamp an empty deployment's total.)"""
    cloud, service, resident, after = _churn(0.0)
    print(f"churn: traced bytes after each round {after}")
    _assert_churn_left_nothing(cloud, service, resident, after)


def test_session_churn_under_storage_faults_does_not_grow_the_deployment():
    """The same five rounds with 5 % storage faults armed: every mutation
    now carries an idempotence token and some are retried, yet the token
    lives only as long as its retry loop, so nothing it recorded stays."""
    cloud, service, resident, after = _churn(0.05)
    kv = service.system_store.inner
    faults = sum(kv.faults.injected.values())
    print(f"churn at 5 % storage faults: traced bytes after each round "
          f"{after}, {faults} system-store faults")
    assert faults > 0
    _assert_churn_left_nothing(cloud, service, resident, after)


def test_importing_every_package_maps_no_crypto_library():
    """A fresh interpreter that imports every ``repro`` package loads no
    ``hashlib`` or ``ssl``: the floor of every simulation's peak RSS holds
    no OpenSSL (3.11: about 18 MB; 21.6-21.8 MB with ``hashlib``)."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", _IMPORT_FLOOR_PROBE, *PACKAGES],
                         env=env, capture_output=True, text=True, check=True)
    report = json.loads(out.stdout)
    print(f"import floor: {report['peak_kb'] / 1024:.1f} MB peak RSS, "
          f"crypto modules: {report['crypto']}")
    assert report["crypto"] == []
