"""One write pipeline: a single write is a one-member transaction.

``create()``/``set_data()``/``delete()`` and ``multi([op])`` ride the same
follower and leader code, so they must be indistinguishable past the client
facade: same virtual clock, same metered dollars, same stored items, same
watch deliveries — on every deployment shape.  The crash-recovery and
validation behaviour is likewise one behaviour, whatever the member count.
"""

import pytest

from repro.faaskeeper import (
    BadArgumentsError,
    CreateOp,
    DeleteOp,
    SetDataOp,
    TransactionFailedError,
)
from repro.faaskeeper.layout import SYSTEM_NODES, SYSTEM_SESSIONS
from .conftest import cap_redeliveries, crash_next, make_service


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
    "distributor_on_commit": dict(distributor_enabled=True),
    "commit_log_outbox": dict(commit_log_enabled=True, outbox_enabled=True),
    "hybrid": dict(user_store="hybrid"),
}


def _observe(op, config, as_multi):
    cloud, service = make_service(seed=5, **config)
    writer, watcher = service.connect(), service.connect()
    events = []
    writer.create("/p", b"")
    writer.create("/p/n", b"seed")
    cloud.run(until=cloud.now + 3_000)
    watcher.get_data("/p/n", watch=events.append)
    watcher.get_children("/p", watch=events.append)
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
        "watches": events,
    }


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
@pytest.mark.parametrize("op_name", OPS)
def test_single_op_equals_one_member_multi(op_name, deployment):
    op, config = OPS[op_name], DEPLOYMENTS[deployment]
    single = _observe(op, config, False)
    multi = _observe(op, config, True)
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


@pytest.mark.parametrize("case,capped", [
    *(pytest.param(case, True, id=case) for case in CRASH_CASES),
    *(pytest.param(case, False, id=f"{case}-default-redelivery")
      for case in CRASH_CASES)])
def test_follower_crash_after_push_leader_try_commits(case, capped):
    """Crash between push (➂) and commit (➃): the envelope commits whole
    or not at all (Z1) and the request is answered once, with success.
    With redeliveries disabled the leader must commit it on the follower's
    behalf once the leases expire; at the default cap the redelivered
    attempt and TryCommit race for it, and either may win."""
    ops = CRASH_CASES[case]
    cloud, service = make_service(seed=12)
    c = service.connect()
    c.create("/a", b"")
    c.create("/b", b"")
    if capped:
        # Silence the queue's drop notification: this case observes the
        # pure TryCommit path (a drop answers before TryCommit can).
        cap_redeliveries(service, c, 1).on_drop = None
    crash_next(service.follower_fn, "after:send#1")
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
                                SetDataOp("/small", b"x" * 252 * 1024),
                                # over the queue's 256 kB envelope bound too
                                CreateOp("/big", b"x" * 300 * 1024),
                                SetDataOp("/small", b"x" * 300 * 1024)],
                         ids=["create", "set_data", "create_300kB",
                              "set_data_300kB"])
def test_node_size_bound_applies_to_every_data_carrying_op(op, as_multi):
    """A write over the follower's node bound or the queue's envelope bound
    is rejected as ``bad_arguments``, and the session goes on: its next
    read and write finish by a virtual deadline (a wedged session would
    leave them pending, and a sync call would never return)."""
    cloud, service = make_service(seed=22)
    c = service.connect()
    c.create("/small", b"")
    error = TransactionFailedError if as_multi else BadArgumentsError
    with pytest.raises(error, match="bad_arguments"):
        submit_async(c, [op], as_multi).wait()
    read = c.get_data_async("/small")
    write = c.set_data_async("/small", b"after")
    cloud.run(until=cloud.now + 60_000)
    assert read.done and write.done
    assert read.wait()[0] == b""
    assert c.exists("/big") is None
    assert c.get_data("/small")[0] == b"after"


# ------------------------------------------------------------ malformed envelopes
def send_raw(client, ops):
    """Queue a write envelope of raw member dicts, as a client with its own
    wire code could (no client-side validation); returns its response."""
    rid = client._next_rid()
    response = client._pending[rid] = client.env.event()
    body = {"session": client.session_id, "rid": rid, "op": "write", "ops": ops}
    client.cloud.run_process(client.queue.send(client.ctx, body, size_kb=1.0))
    return client.cloud.env.run(until=response)


SET_A = SetDataOp("/a", b"v").to_dict()


@pytest.mark.parametrize("ops, culprit", [
    ([SET_A, {"op": "rename", "path": "/b"}], 1),
    (["not a member", SET_A], 0),
    ([SET_A, dict(SET_A, colour="red")], 1),
    ([SET_A, CreateOp("/", b"").to_dict()], 1),
], ids=["unknown_op", "not_a_dict", "unknown_field", "create_root"])
def test_a_malformed_member_fails_its_envelope_alone(ops, culprit):
    """The follower answers ``bad_arguments`` for the culprit member and
    ``rolled_back`` for the others, before it locks or commits anything,
    and the session's next request succeeds."""
    cloud, service = make_service(seed=7)
    c = service.connect()
    c.create("/a", b"")
    leader_runs = service.leader_fns[0].invocations
    response = send_raw(c, ops)
    assert not response.ok and response.error == "bad_arguments"
    assert [r["error"] for r in response.results] == [
        "bad_arguments" if i == culprit else "rolled_back" for i in range(len(ops))]
    assert service.leader_fns[0].invocations == leader_runs  # nothing pushed
    nodes = service.system_store.table(SYSTEM_NODES)
    for path in nodes.keys():
        item = nodes.raw(path)
        assert "lock" not in item and not item.get("transactions")
    assert nodes.raw("/a")["version"] == 0
    assert c.set_data("/a", b"after").version == 1
    assert c.get_data("/a")[0] == b"after"
