"""One write pipeline: a single write is a one-member transaction.

``create()``/``set_data()``/``delete()`` and ``multi([op])`` ride the same
follower and leader code, so they must be indistinguishable past the client
facade: same virtual clock, same metered dollars, same stored items, same
watch deliveries — on every deployment shape.  The crash-recovery and
validation behaviour is likewise one behaviour, whatever the member count.
"""

import itertools

import pytest

from repro.faaskeeper import (
    CreateOp,
    DeleteOp,
    RequestFailedError,
    SetDataOp,
    TransactionFailedError,
    watches,
)
from repro.faaskeeper.layout import SYSTEM_NODES, SYSTEM_SESSIONS
from .conftest import make_service


def submit_async(client, ops, as_multi):
    """Submit through ``multi_async`` or the lone op's per-method facade."""
    if as_multi:
        return client.multi_async(ops)
    (op,) = ops
    if isinstance(op, CreateOp):
        return client.create_async(op.path, op.data, op.ephemeral,
                                   op.sequence, op.acl)
    if isinstance(op, SetDataOp):
        return client.set_data_async(op.path, op.data, op.version)
    return client.delete_async(op.path, op.version)


# ------------------------------------------------------------ equivalence
OPS = {
    "create": CreateOp("/p/new", b"hello"),
    "create_ephemeral": CreateOp("/p/eph", b"hello", ephemeral=True),
    "create_sequence": CreateOp("/p/seq-", b"hello", sequence=True),
    "set_data": SetDataOp("/p/n", b"payload" * 8),
    "set_data_versioned": SetDataOp("/p/n", b"payload" * 8, version=0),
    "delete": DeleteOp("/p/n"),
}
DEPLOYMENTS = {
    "default": {},
    "four_shards": dict(leader_shards=4),
    "two_regions": dict(regions=["us-east-1", "eu-west-1"]),
    "distributor_on_commit": dict(distributor_enabled=True,
                                  ack_policy="on_commit"),
    "commit_log_outbox": dict(commit_log_enabled=True, outbox_enabled=True),
    "hybrid": dict(user_store="hybrid"),
}


def _observe(op, config, as_multi, monkeypatch):
    # Watch instance ids come from a process-wide counter and are stored
    # (and billed by size): both runs must draw the same ids.
    monkeypatch.setattr(watches, "_uid", itertools.count(1))
    cloud, service = make_service(seed=5, **config)
    writer, watcher = service.connect(), service.connect()
    writer.create("/p", b"")
    writer.create("/p/n", b"seed")
    cloud.run(until=cloud.now + 3_000)
    watcher.get_data("/p/n", watch=lambda event: None)
    watcher.get_children("/p", watch=lambda event: None)
    cloud.run(until=cloud.now + 3_000)

    result = submit_async(writer, [op], as_multi).wait()
    acked_at = cloud.now
    cloud.run(until=cloud.now + 5_000)

    system = {name: {key: table.raw(key) for key in table.keys()}
              for name, table in service.system_store.tables.items()}
    user = {(region, path): service.user_store.peek(region, path)
            for region in service.config.regions
            for path in system[SYSTEM_NODES]}
    return {
        "result": result[0] if as_multi else result,
        "acked_at": acked_at,
        "clock": cloud.now,
        "cost": round(sum(cloud.meter.by_service().values()), 15),
        "system": system,
        "user": user,
        "watches": list(watcher.watch_events),
    }


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
@pytest.mark.parametrize("op_name", OPS)
def test_single_op_equals_one_member_multi(op_name, deployment, monkeypatch):
    op, config = OPS[op_name], DEPLOYMENTS[deployment]
    single = _observe(op, config, False, monkeypatch)
    multi = _observe(op, config, True, monkeypatch)
    assert single["watches"], "the scenario must exercise the watch path"
    assert single == multi


# ------------------------------------------------------------ crash recovery
CRASH_CASES = {
    "set_data": [SetDataOp("/a", b"rec")],
    "create": [CreateOp("/a/new", b"rec")],
    "delete": [DeleteOp("/b")],
    "multi": [SetDataOp("/a", b"rec"), CreateOp("/a/new", b"rec"),
              DeleteOp("/b")],
}


@pytest.mark.parametrize("case", CRASH_CASES)
def test_follower_crash_after_push_leader_try_commits(case):
    """Crash between push (➂) and commit (➃) with redeliveries disabled:
    the leader must commit the whole envelope on the follower's behalf once
    the leases expire — every member applied, none partially (Z1)."""
    ops = CRASH_CASES[case]
    cloud, service = make_service(seed=12, follower_max_receive=1)
    c = service.connect()
    c.create("/a", b"")
    c.create("/b", b"")
    # Silence the queue's drop notification: this test observes the pure
    # recovery path (the drop/recovery ack race is covered separately).
    service._session_queues[c.session_id].on_drop = None
    service.follower_fn.plan_crash(
        "after_push", invocations=[service.follower_fn.invocations + 1])
    fut = submit_async(c, ops, as_multi=len(ops) > 1)
    cloud.run(until=cloud.now + 30_000)
    assert fut.done
    fut.wait()  # acknowledged as a success, not an error

    nodes = service.system_store.table(SYSTEM_NODES)
    for op in ops:
        raw = nodes.raw(op.path)
        stat = c.exists(op.path)
        if isinstance(op, DeleteOp):
            assert raw["exists"] is False and stat is None
        else:
            assert raw["exists"] is True
            assert c.get_data(op.path)[0] == op.data
            assert stat.version == raw["version"] == (
                1 if isinstance(op, SetDataOp) else 0)
    # Nothing is left pending on any touched node or parent, and the
    # parents' child lists agree between system and user store.
    for path in ("/", "/a", "/a/new", "/b"):
        raw = nodes.raw(path)
        if raw is None:
            continue
        assert raw["transactions"] == []
        if raw["exists"]:
            assert sorted(raw["children"]) == c.get_children(path)


# ------------------------------------------------------------ bug fixes
def test_delete_of_another_sessions_ephemeral():
    """The ephemeral bookkeeping of a delete belongs to the node's OWNER,
    whichever session issues the delete."""
    cloud, service = make_service(seed=21)
    owner, other = service.connect(), service.connect()
    owner.create("/e", b"x", ephemeral=True)
    sessions = service.system_store.table(SYSTEM_SESSIONS)
    assert sessions.raw(owner.session_id)["ephemeral"] == ["/e"]

    other.delete("/e")

    assert other.exists("/e") is None
    assert service.system_store.table(SYSTEM_NODES).raw("/e")["exists"] is False
    assert service.user_store.peek(service.config.primary_region, "/e") is None
    assert sessions.raw(owner.session_id)["ephemeral"] == []
    assert service.follower_fn.failures == 0


@pytest.mark.parametrize("as_multi", [False, True])
@pytest.mark.parametrize("op", [CreateOp("/big", b"x" * 252 * 1024),
                                SetDataOp("/small", b"x" * 252 * 1024)],
                         ids=["create", "set_data"])
def test_node_size_bound_applies_to_every_data_carrying_op(op, as_multi):
    cloud, service = make_service(seed=22)
    c = service.connect()
    c.create("/small", b"")
    error = TransactionFailedError if as_multi else RequestFailedError
    with pytest.raises(error, match="bad_arguments"):
        submit_async(c, [op], as_multi).wait()
    assert c.exists("/big") is None
    assert c.get_data("/small")[0] == b""
