"""Fault injection: follower/leader crashes, lock expiry, retries (Z1).

The follower (Algorithm 1) is crashed in the windows between its numbered
steps — before its push, after it, after its commit; the leader's
TryCommit (Algorithm 2, step ➋) must recover or reject the transaction so
that no partial state is ever user-visible.
"""

import pytest

from repro.cloud import OpContext
from repro.cloud.errors import ConditionFailed
from repro.cloud.expressions import ListAppend
from repro.cloud.functions import FunctionContext
from repro.faaskeeper import NoNodeError, RequestFailedError
from repro.faaskeeper.chaos import verify_exactly_once
from repro.faaskeeper.layout import (SYSTEM_NODES, SYSTEM_SESSIONS,
                                     SYSTEM_STATE, epoch_key)
from .conftest import cap_redeliveries, crash_next, make_service


def epoch_items(service):
    state = service.system_store.table(SYSTEM_STATE)
    return [(state.raw(epoch_key(region)) or {}).get("items", [])
            for region in service.config.regions]


def test_follower_crash_before_push_is_retried_transparently():
    """Crash after validation, before the leader push: the queue redelivers
    the request and the client still gets a success."""
    cloud, service = make_service(seed=11)
    c = service.connect()
    c.create("/a", b"")
    crash_next(service.follower_fn, "before:send#1")
    res = c.set_data("/a", b"v1")
    assert res.version == 1
    data, _ = c.get_data("/a")
    assert data == b"v1"
    assert service.follower_fn.failures == 1


def test_follower_crash_after_commit_no_double_apply():
    """Crash after commit (➃): the redelivered request must be deduplicated
    by the session watermark — the node version is bumped exactly once."""
    cloud, service = make_service(seed=13)
    c = service.connect()
    c.create("/a", b"")
    crash_next(service.follower_fn, "after:transact_update#1")
    fut = c.set_data_async("/a", b"once")
    cloud.run(until=cloud.now + 30_000)
    assert fut.done and fut.wait().version == 1
    data, stat = c.get_data("/a")
    assert data == b"once"
    assert stat.version == 1  # not applied twice


def test_multi_node_create_commit_is_atomic_under_crash():
    """Z1: a crash between push and commit of a create must never leave the
    child registered without the node (or vice versa), and the request is
    answered once, with success."""
    cloud, service = make_service(seed=14)
    c = service.connect()
    c.create("/p", b"")
    crash_next(service.follower_fn, "after:send#1")
    fut = c.create_async("/p/child", b"x")
    cloud.run(until=cloud.now + 30_000)
    nodes = service.system_store.table("fk-system-nodes")
    child = nodes.raw("/p/child")
    parent = nodes.raw("/p")
    child_exists = bool(child and child.get("exists"))
    child_registered = "child" in parent.get("children", [])
    assert child_exists == child_registered  # all-or-nothing
    assert fut.done and fut.wait() == "/p/child"
    assert child_exists  # the success ack implies the commit happened


def test_leader_crash_is_retried_by_queue():
    cloud, service = make_service(seed=15)
    c = service.connect()
    c.create("/a", b"")
    leader = service.leader_fns[0]
    crash_next(leader, "start")
    res = c.set_data("/a", b"v1")
    assert res.version == 1
    assert leader.failures == 1


def test_a_leader_crash_after_its_pop_takes_the_early_exit():
    """The leader dies right after popping a set_data's txid: the
    redelivered batch finds the txid applied (its ``applied_tx``
    watermark) and only answers, so the image is written once and
    TryCommit never runs."""
    cloud, service = make_service(seed=15)
    c = service.connect()
    c.create("/a", b"")

    def s3_writes():
        return sum(line.count for line in cloud.meter.lines()
                   if (line.service, line.operation) == ("s3", "obj_write"))

    def probes(segment):
        values = service.metrics_snapshot()["fk_stage_segment_ms"]["values"]
        return values.get(f'fn="fk-leader",segment="{segment}"',
                          {"count": 0})["count"]

    writes, replications = s3_writes(), probes("update_user")
    leader = service.leader_fns[0]
    crash_next(leader, "after:update_item#1")
    assert c.set_data("/a", b"v1").version == 1  # answered before the pop
    cloud.run(until=cloud.now + 5_000)
    assert leader.failures == 1
    assert s3_writes() - writes == 1
    assert probes("update_user") - replications == 1
    assert probes("try_commit") == 0


def test_poison_request_eventually_fails_future():
    """A request whose follower processing always crashes is dropped by the
    queue after max_receive and the client future fails."""
    cloud, service = make_service(seed=16)
    c = service.connect()
    c.create("/a", b"")
    cap_redeliveries(service, c, 2)
    first = service.follower_fn.invocations + 1
    cloud.runtime.plan_crash(*(f"fk-follower:{i}:before:send#1"
                               for i in range(first, first + 10)))
    fut = c.set_data_async("/a", b"x")
    cloud.run(until=cloud.now + 60_000)
    assert fut.done
    with pytest.raises(RequestFailedError):
        fut.wait()


def test_lock_expiry_does_not_corrupt_state():
    """A follower whose lease expired mid-request must not clobber a newer
    holder's committed data."""
    cloud, service = make_service(seed=17)
    c = service.connect()
    c.create("/a", b"")
    # Two sequential writes through the normal path still work after an
    # artificial long stall is injected by an expired-lock scenario: we
    # simulate by directly taking the node lock and letting it expire.
    def hog():
        handle = yield from service.node_lock.acquire(OpContext(), "/a")
        assert handle is not None
        # never release: the lease must expire on its own

    cloud.run_process(hog())
    res = c.set_data("/a", b"after-expiry")  # must eventually succeed
    assert res.version == 1
    data, _ = c.get_data("/a")
    assert data == b"after-expiry"


def test_a_commit_landing_after_try_commit_does_not_wedge_the_path():
    """The follower's step ➃ stalls past its lease, so the leader
    TryCommits on its behalf and pops the txid.  TryCommit clears the
    expired lock it committed under: the stalled commit, landing late,
    fails its lease guard instead of appending the txid to the pending
    list a second time, and the path's next write completes."""
    cloud, service = make_service(seed=7)
    c = service.connect()
    c.create("/a", b"")
    store = service.system_store
    real = store.transact_update
    stalled = []

    def stall_follower_commit(ctx, ops, *args, **kwargs):
        # The follower's step ➃ is the first transaction with session
        # records (TryCommit's, which carries them too, comes later).
        if not stalled and any(op[0] == SYSTEM_SESSIONS for op in ops):
            stalled.append(cloud.now)
            yield cloud.env.timeout(2_500.0)
        return (yield from real(ctx, ops, *args, **kwargs))

    store.transact_update = stall_follower_commit
    assert c.set_data("/a", b"x").txid == 2
    cloud.run(until=cloud.now + 10_000)
    assert stalled
    nodes = store.table(SYSTEM_NODES)
    assert nodes.raw("/a")["transactions"] == []
    assert "lock" not in nodes.raw("/a")
    assert c.set_data("/a", b"y").txid == 3
    data, stat = c.get_data("/a")
    assert (data, stat.version) == (b"y", 2)


def _around_try_commit(cloud, service, before):
    """Stall the follower's step ➃ and run ``before(follower_commit)`` just
    before TryCommit's first transaction; returns the outcomes of both
    parties' transactions in order.  Both carry the session records, the
    follower's comes first.  ``follower_commit()`` lands the stalled commit
    now and resumes the follower with its outcome."""
    store = service.system_store
    real = store.transact_update
    stalled, outcomes = [], []

    def follower_commit():
        landed, args, kwargs = stalled[0]
        try:
            result = yield from real(*args, **kwargs)
        except ConditionFailed as exc:
            outcomes.append("follower refused")
            landed.fail(exc)
        else:
            outcomes.append("follower committed")
            landed.succeed(result)

    def wrapped(*args, **kwargs):
        if not any(op[0] == SYSTEM_SESSIONS for op in args[1]):
            return (yield from real(*args, **kwargs))
        if not stalled:
            stalled.append((cloud.env.event(), args, kwargs))
            return (yield stalled[0][0])
        if not outcomes:  # TryCommit's first transaction
            yield from before(follower_commit)
        try:
            result = yield from real(*args, **kwargs)
        except ConditionFailed:
            outcomes.append("refused")
            raise
        outcomes.append("committed")
        return result

    store.transact_update = wrapped
    return outcomes


def _acks(service):
    """The responses the leader sends, as ``(txid, ok)``."""
    sent = []
    notify = service.notify_response

    def counting(response):
        sent.append((response.txid, response.ok))
        return (yield from notify(response))

    service.notify_response = counting
    return sent


def test_a_commit_landing_during_try_commit_counts_as_committed():
    """The stalled follower's step ➃ lands just before TryCommit's
    transaction: that transaction fails its guard, the re-read finds the
    txid pending, and the write counts as committed — acknowledged once,
    applied once."""
    cloud, service = make_service(seed=7)
    c = service.connect()
    c.create("/a", b"")
    outcomes = _around_try_commit(cloud, service, lambda land: land())
    acks = _acks(service)
    fut = c.set_data_async("/a", b"x")
    cloud.run(until=cloud.now + 10_000)
    assert outcomes == ["follower committed", "refused"]
    assert fut.done and fut.wait().txid == 2
    assert acks == [(2, True)]
    nodes = service.system_store.table(SYSTEM_NODES)
    assert (nodes.raw("/a")["version"], nodes.raw("/a")["applied_tx"]) == (1, 2)
    assert verify_exactly_once(service, {"/a": b"x"}) == []
    assert c.set_data("/a", b"y").txid == 3


def test_a_lock_retaken_during_try_commit_redelivers_the_batch():
    """A new holder takes the expired lock just before TryCommit's
    transaction: the re-read finds it live and the leader raises
    ``RetryBatch``.  The stalled follower's own commit, landing next, is
    refused, so the follower asks for its message again: that delivery
    waits out the new lease and commits the request under txid 3.  The
    redelivered batch's TryCommit of txid 2 is then refused and burns the
    txid without a word: one ack, at txid 3, applied once."""
    cloud, service = make_service(seed=7)
    c = service.connect()
    c.create("/a", b"")
    taken = []

    def retake(land):
        taken.append((yield from service.node_lock.acquire(OpContext(), "/a")))
        yield from land()

    outcomes = _around_try_commit(cloud, service, retake)
    acks = _acks(service)
    fut = c.set_data_async("/a", b"x")
    cloud.run(until=cloud.now + 20_000)
    assert taken and taken[0] is not None
    assert outcomes == ["follower refused", "refused", "committed", "refused"]
    assert fut.done and fut.wait().txid == 3
    assert acks == [(3, True)]
    nodes = service.system_store.table(SYSTEM_NODES)
    assert (nodes.raw("/a")["version"], nodes.raw("/a")["applied_tx"]) == (1, 3)
    assert verify_exactly_once(service, {"/a": b"x"}) == []
    assert c.set_data("/a", b"y").txid == 4


def test_consistency_after_random_follower_crashes():
    """Soak: every third follower invocation crashes at a random point; all
    acknowledged writes must be present and version numbers consistent."""
    cloud, service = make_service(seed=18)
    c = service.connect()
    c.create("/a", b"")
    cloud.runtime.plan_crash(
        *(f"fk-follower:{i}:before:send#1" for i in range(3, 60, 5)),
        *(f"fk-follower:{i}:after:transact_update#1" for i in range(4, 60, 7)))
    acked = 0
    for i in range(12):
        fut = c.set_data_async("/a", f"v{i}".encode())
        cloud.run(until=cloud.now + 60_000)
        if fut.done:
            try:
                fut.wait()
                acked += 1
            except RequestFailedError:
                pass
    assert acked >= 8
    raw = service.system_store.table("fk-system-nodes").raw("/a")
    assert raw["transactions"] == []  # everything drained
    data, stat = c.get_data("/a")
    # the last acknowledged value is visible with a consistent version
    assert stat.version == raw["version"]


def test_watch_fanout_crash_between_deliveries_sends_the_earlier_ones():
    """The fan-out dies before its second of three deliveries: the first
    is on the wire (a function that crashes cannot take back what it
    sent), the third is never sent by the dead invocation, the retried
    invocation sends all three, and the client's deduplication by
    watch-instance id keeps each callback at exactly once."""
    cloud, service = make_service(seed=17)
    c = service.connect()
    paths = ("/a", "/b", "/c")
    fired, arrived = [], []
    for path in paths:
        c.create(path, b"")
        c.get_data(path, watch=lambda ev: fired.append(ev.path))
    deliver = c._deliver_watch
    c._deliver_watch = lambda wid, ev: (
        arrived.append((service.watch_fn.invocations, ev.path)),
        deliver(wid, ev))
    crash_next(service.watch_fn, "before:notify#2")

    txn = c.transaction()
    for path in paths:
        txn.set_data(path, b"1")
    txn.commit()
    cloud.run(until=cloud.now + 2_000)
    assert (service.watch_fn.failures, service.watch_fn.invocations) == (1, 2)
    assert sorted(arrived) == [(1, "/a"), (2, "/a"), (2, "/b"), (2, "/c")]
    assert sorted(fired) == list(paths)


@pytest.mark.parametrize("shards", [1, 4])
def test_a_leader_crash_between_pops_leaves_no_txid_pending(shards):
    """The leader dies between a create's two pops (the child's, then the
    parent's).  The redelivery finds the primary path applied, and pops
    the parent too: the parent's next write completes instead of waiting
    behind a txid nobody pops."""
    cloud, service = make_service(seed=7, leader_shards=shards)
    c = service.connect()
    c.create("/p", b"")
    leader = service.leader_fns[service.shard_of("/p/c")]
    crash_next(leader, "before:update_item#2")
    c.create("/p/c", b"")
    cloud.run(until=cloud.now + 30_000)
    assert leader.failures == 1
    nodes = service.system_store.table(SYSTEM_NODES)
    assert nodes.raw("/p")["transactions"] == []
    fut = c.set_data_async("/p", b"x")
    cloud.run(until=cloud.now + 30_000)
    assert fut.done and fut.wait().version == 1


def test_a_leader_pops_a_txid_only_where_it_is_pending():
    """A redelivered batch pops the other paths of a txid whose primary
    is applied, but only where the txid is still pending: a txid that
    TryCommit rejected never committed there, so its pop must not stamp
    the path's ``applied_tx`` (GC collects a tombstone only at the txid
    that deleted it)."""
    cloud, service = make_service(seed=7)
    c = service.connect()
    c.create("/b", b"")
    cloud.run(until=cloud.now + 10_000)
    nodes = service.system_store.table(SYSTEM_NODES)
    applied = nodes.raw("/b")["applied_tx"]
    stage = next(s for s in service.stages if s.kind == "leader")
    fctx = FunctionContext(cloud.env, stage.fn, 0)
    cloud.run_process(stage.logic._pop_paths(fctx, ["/b"], applied + 5))
    assert nodes.raw("/b")["applied_tx"] == applied


@pytest.mark.parametrize("window", ["after:update_item#1",
                                    "after:update_item#2"],
                         ids=["after-consume", "after-epoch-add"])
def test_a_leader_crash_after_the_watch_consume_still_fires_it(window):
    """The inline leader consumes the watch (its first update), adds it to
    the epoch counter (its second) and only then invokes the fan-out.  A
    crash after either update: the redelivered txid fires the instances
    its consume recorded, so the watch fires once and the epoch drains."""
    cloud, service = make_service(seed=7)
    c, watcher = service.connect(), service.connect()
    c.create("/a", b"")
    fired = []
    watcher.get_data("/a", watch=fired.append)
    leader = service.leader_fns[0]
    crash_next(leader, window)
    fut = c.set_data_async("/a", b"x")
    cloud.run(until=cloud.now + 30_000)
    assert leader.failures == 1
    assert fut.done and fut.wait().version == 1
    assert [ev.path for ev in fired] == ["/a"]
    assert epoch_items(service) == [[]]


@pytest.mark.parametrize("window", ["start", "after:update_item#2",
                                    "before:update_item#3"],
                         ids=["entry", "after-watch-stage", "before-visible"])
def test_a_primary_distributor_crash_strands_no_watch_id(window):
    """The primary distributor dies on entry, after adding the batch's
    armed watch ids to every region's epoch counter, or before its
    visibility mark.  Its redelivery adds the ids again: the add is
    idempotent, so the one removal after the fan-out drains every
    counter, and the watch fires once."""
    cloud, service = make_service(
        seed=7, distributor_enabled=True, regions=["us-east-1", "eu-west-1"])
    c, watcher = service.connect(), service.connect()
    c.create("/a", b"")
    cloud.run(until=cloud.now + 30_000)
    fired = []
    watcher.get_data("/a", watch=fired.append)
    primary = service.distribution.fns[service.config.primary_region]
    crash_next(primary, window)  # update_items #1, #2: the two adds
    c.set_data("/a", b"x")
    cloud.run(until=cloud.now + 30_000)
    assert primary.failures == 1
    assert [ev.path for ev in fired] == ["/a"]
    assert epoch_items(service) == [[], []]
    for region in service.config.regions:
        assert service.user_store.peek(region, "/a")["data"] == b"x"


@pytest.mark.parametrize("distributor", [False, True],
                         ids=["inline", "distributor"])
def test_a_fanout_that_dies_every_attempt_still_drains_the_epoch(distributor):
    """Every attempt of the watch fan-out (the first and both retries)
    dies on entry.  The one WatchCallback both pipelines share,
    ``EpochLedger.remove_after``, clears the epoch entries whatever the
    fan-out's outcome: the counter drains, the watcher is never called
    and the next write commits."""
    cloud, service = make_service(seed=7, distributor_enabled=distributor)
    c, watcher = service.connect(), service.connect()
    c.create("/a", b"")
    cloud.run(until=cloud.now + 30_000)
    fired = []
    watcher.get_data("/a", watch=fired.append)
    fn = service.watch_fn
    cloud.runtime.plan_crash(*(f"fk-watch:{fn.invocations + i}:start"
                               for i in (1, 2, 3)))
    c.set_data("/a", b"x")
    cloud.run(until=cloud.now + 30_000)
    assert (fn.failures, fn.invocations) == (3, 3)
    assert fired == []
    assert epoch_items(service) == [[]]
    res = c.set_data("/a", b"y")
    assert (res.version, res.txid) == (2, 3)


@pytest.mark.parametrize("seed", [12, 15, 20])
def test_try_commit_moves_the_dedup_watermark(seed):
    """The follower dies after its push; the leader's TryCommit commits
    the request, ``last_rid`` included, and the redelivered attempt finds
    it committed once it holds the locks TryCommit cleared: it pushes no
    second txid and leaves no lock, so the request is applied once and
    the acked version is the stored one."""
    cloud, service = make_service(seed=seed)
    c = service.connect()
    c.create("/a", b"")
    queue = service.leader_queues[0]
    sent = queue.sent
    crash_next(service.follower_fn, "after:send#1")
    fut = c.set_data_async("/a", b"new")
    cloud.run(until=cloud.now + 60_000)
    assert fut.done and fut.wait().version == 1
    assert queue.sent - sent == 1
    raw = service.system_store.table(SYSTEM_NODES).raw("/a")
    assert raw["version"] == 1 and raw["transactions"] == []
    assert not service.node_lock.live(raw, cloud.now)


def test_try_commit_lists_the_ephemeral_with_its_owner():
    """An ephemeral create whose follower died after the push commits by
    TryCommit, owner's ``ephemeral`` list included, so it goes when its
    session closes."""
    cloud, service = make_service(seed=15)
    service.connect()  # a bystander session
    c = service.connect()
    c.create("/x", b"")
    crash_next(service.follower_fn, "after:send#1")
    c.create_async("/e", b"", ephemeral=True)
    cloud.run(until=cloud.now + 60_000)
    c.close()
    cloud.run(until=cloud.now + 60_000)
    node = service.system_store.table(SYSTEM_NODES).raw("/e")
    assert not (node and node.get("exists"))


def test_the_audit_reads_every_system_node():
    """``verify_exactly_once`` audits the whole node table, not only the
    workload's paths: a txid left pending on the root and a live lock on
    an unrelated node are both reported."""
    cloud, service = make_service(seed=7)
    c = service.connect()
    c.create("/a", b"x")
    cloud.run(until=cloud.now + 10_000)  # quiesce: the pops land
    assert verify_exactly_once(service, {"/a": b"x"}) == []
    store, ctx = service.system_store, service.system_ctx
    cloud.run_process(store.update_item(
        ctx, SYSTEM_NODES, "/", updates=[ListAppend("transactions", [99])]))
    cloud.run_process(service.node_lock.acquire(ctx, "/b"))
    violations = verify_exactly_once(service, {"/a": b"x"})
    assert "/: pending transactions not drained: [99]" in violations
    assert any(v.startswith("/b: lock left behind") for v in violations)


def test_a_bug_in_a_handler_escapes_the_run_instead_of_being_redelivered(
        monkeypatch):
    """Only what the cloud can cause (a crash, an exhausted storage op, a
    requested redelivery) is redelivered.  A leader whose code raises a
    ``TypeError`` would fail the same way on every delivery, so the error
    ends the run instead of spinning the batch forever."""
    from repro.faaskeeper.leader import LeaderLogic

    def broken(self, fctx, msg):
        raise TypeError("a bug in the leader")
        yield  # pragma: no cover - makes this a generator

    cloud, service = make_service(seed=11)
    client = service.connect()
    monkeypatch.setattr(LeaderLogic, "process", broken)
    client.create_async("/a", b"x")
    with pytest.raises(TypeError, match="a bug in the leader"):
        cloud.run(until=cloud.now + 60_000)
