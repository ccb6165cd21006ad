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
from repro.cloud.sanitize import SanitizerError
from repro.faaskeeper.client import FaaSKeeperClient
from repro.faaskeeper.layout import SYSTEM_SESSIONS
from repro.faaskeeper.model import KeeperState
from ..helpers.footprint import bytes_and_blocks_per
from .conftest import make_service

#: Budget for one registered, idle session: its slotted client, its name,
#: and the dict entries that index them; no queue, no dict of containers
#: made on use, and no record of its own (the sessions of one registration
#: batch share one frozen record).  On CPython 3.11 it reads 290 B, 2.2
#: blocks and 1.1 GC-tracked objects: 160 B of client, 53 B of name, 26 B
#: in each of the service's registry and the session table — in any test
#: order, since the client has no instance dict whose values CPython
#: pre-sizes by the attribute names earlier sessions stored (330-370 B in
#: tier-1 order with a ``__dict__`` slot).  A client with an instance dict
#: and a record wrapper per key read 425 B / 4.2 / 2.1 on 3.11 (3.10: 522
#: B / 5.2 / 3.1; 3.12: 409 B), a private record image per session 656 B /
#: 7.1 / 4, the seed of this test 7 756 B / 48 blocks, and a session with
#: its queue made at connect 1 132 B / 12.1 blocks / 7 objects.
#: GC-tracked objects are what every full collection walks, once per
#: session.
IDLE_SESSION_BYTES = 320
IDLE_SESSION_BLOCKS = 4
IDLE_SESSION_OBJECTS = 2


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


def _made(client):
    """What ``client`` made on use (its containers and queue), by name."""
    return client._made or {}


def _session_queues(cloud):
    return [name for name in cloud._queues if name.startswith("fk-session-")]


@pytest.mark.skipif(bool(os.environ.get("FK_SANITIZE")),
                    reason="sanitizer snapshots are not the subject")
def test_idle_session_fits_the_budget():
    cloud, service = make_service(seed=7, user_store="mem",
                                  session_plane_shards=8)
    footprint = bytes_and_blocks_per(2000, service.connect_many)
    sites = f"largest sites per session: {footprint.top()}"
    assert footprint.size <= IDLE_SESSION_BYTES, sites
    assert footprint.blocks <= IDLE_SESSION_BLOCKS, sites
    assert footprint.objects <= IDLE_SESSION_OBJECTS, sites
    # and the reason: no queue, no containers, not even the dict that
    # would keep them (reading ``client.queue`` would make the queue, so
    # the probe looks at the dict)
    assert all(client._made is None for client in service.clients.values())
    assert _session_queues(cloud) == []


def test_a_session_record_is_its_batch_mates_until_it_writes():
    """The sessions of one registration batch share one stored record; a
    session's first write, and an ephemeral create, each install a record
    of that session's own (copy on write), and its batch-mates go on
    reading the shared one."""
    _cloud, service = make_service(seed=7, user_store="mem")
    fleet = service.connect_many(4)
    table = service.system_store.table(SYSTEM_SESSIONS)
    shared = table._items[fleet[0].session_id]
    assert all(table._items[c.session_id] is shared for c in fleet)
    writer, owner = fleet[1], fleet[2]
    writer.create("/a", b"x")
    written = table._items[writer.session_id]
    assert written is not shared and written.previous is shared.value
    assert written.value["last_rid"] == 1 and written.value["ephemeral"] == []
    owner.create("/e", b"", ephemeral=True)
    created = table._items[owner.session_id]
    assert created is not shared and created.previous is shared.value
    assert created.value["ephemeral"] == ["/e"]
    owner.set_data("/e", b"y")
    assert table._items[owner.session_id].previous is created.value
    for mate in (fleet[0], fleet[3]):
        assert table._items[mate.session_id] is shared
    assert shared.value == {"ephemeral": [], "region": writer.region,
                            "last_rid": 0}
    assert shared.previous is None


def test_a_mutated_shared_record_is_reported_through_every_sharing_key(
        monkeypatch):
    """Under ``FK_SANITIZE=1`` a batch's shared record keeps one snapshot:
    mutating the image in place is reported by the next handout of any
    session that shares it, named by that session's key."""
    monkeypatch.setenv("FK_SANITIZE", "1")
    cloud, service = make_service(seed=7, user_store="mem")
    fleet = service.connect_many(4)
    store, ctx = service.system_store, service.system_ctx
    table = store.table(SYSTEM_SESSIONS)
    table.raw(fleet[0].session_id)["last_rid"] = 9  # breaks the image discipline
    for client in fleet:
        with pytest.raises(SanitizerError,
                           match=f"{SYSTEM_SESSIONS}/{client.session_id} was "
                                 f"mutated in place"):
            cloud.run_process(store.get_item(ctx, SYSTEM_SESSIONS,
                                             client.session_id))


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
    assert not any("queue" in _made(c) for c in fleet if c is not writer)


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
    queue = _made(ghost)["queue"]
    assert queue.sent == 1 and queue._buffer is None
    _left_nothing_behind(cloud, service, ghost)
    assert "queue" not in _made(keeper) and not keeper.closed


def test_a_never_used_session_closes_and_leaves_nothing():
    cloud, service = make_service(seed=7, user_store="mem")
    keeper, idle = service.connect_many(2)
    idle.close()
    cloud.run(until=cloud.now + 1_000)
    assert idle.closed and not idle.evicted
    _left_nothing_behind(cloud, service, idle)
    assert service._session_queues == {}
    assert "queue" not in _made(keeper)


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
    assert not any("_listeners" in _made(c) for c in fleet[1:])


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
