"""The self-healing storage layer: backoff, idempotent replay, exhaustion,
and what a storage outage does (and does not do) to the deployment."""

import random

import pytest

from repro.cloud import Cloud, ListAppend
from repro.cloud.context import OpContext
from repro.cloud.errors import (ConditionFailed, StorageTimeout,
                                StorageUnavailable)
from repro.cloud.expressions import Attr
from repro.cloud.faults import FaultInjector
from repro.cloud.kvstore import KeyValueStore
from repro.faaskeeper.exceptions import RequestFailedError
from repro.faaskeeper.heartbeat import HEARTBEAT_PERIOD_MS
from repro.faaskeeper.metrics import MetricsRegistry
from repro.faaskeeper.model import KeeperState
from repro.faaskeeper.retry import (
    KV_OPS,
    MAX_ATTEMPTS,
    USER_OPS,
    RetryingStore,
    backoff_ms,
)

from ..helpers.metrics import total
from .conftest import make_service


class ScriptedInjector(FaultInjector):
    """Deterministic fault script: fire the listed kinds in order, then
    behave cleanly.  Bypasses the RNG draw so tests are exact."""

    def __init__(self, kinds):
        super().__init__(rng=random.Random(0), rate=1.0)
        self._script = list(kinds)

    def draw(self, mutating):
        if not self._script:
            return None
        kind = self._script.pop(0)
        if kind is not None:
            self.injected[kind] += 1
        return kind


class OutageInjector(FaultInjector):
    """Every op times out until virtual time ``until``, then none does."""

    def __init__(self, env, until):
        super().__init__(rng=random.Random(0), rate=1.0)
        self.env = env
        self.until = until

    def draw(self, mutating):
        if self.env.now >= self.until:
            return None
        self.injected["timeout"] += 1
        return "timeout"


def make_wrapped():
    cloud = Cloud.aws(seed=11)
    kv = cloud.kv("dynamodb:test")
    kv.create_table("t")
    wrapped = RetryingStore(
        kv, "system", KV_OPS, cloud.env,
        lambda: cloud.rng.stream("test-retry"), MetricsRegistry())
    return cloud, kv, wrapped


# ------------------------------------------------------------------ backoff
def test_backoff_grows_exponentially_and_caps():
    waits = [backoff_ms(n, u=0.5) for n in range(1, 11)]
    assert waits == [10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0,
                     2000.0, 2000.0]


def test_backoff_jitter_bounds():
    assert backoff_ms(1, u=0.0) == pytest.approx(7.5)
    assert backoff_ms(1, u=1.0) == pytest.approx(12.5)


# ------------------------------------------------------------- retry engine
def test_transient_faults_are_absorbed():
    cloud, kv, wrapped = make_wrapped()
    kv.faults = ScriptedInjector(["throttle", "conn_reset"])
    ctx = OpContext()

    def flow():
        yield from wrapped.put_item(ctx, "t", "k", {"a": 1})
        return (yield from wrapped.get_item(ctx, "t", "k"))

    assert cloud.run_process(flow()) == {"a": 1}
    assert wrapped._retries.labels(store="system", op="put_item",
                                   error="ThrottlingError").value == 1


def test_a_burst_of_overlapping_failures_is_one_failure():
    """Sixteen concurrent ops whose injected timeouts land together cost
    each op one failed attempt, not sixteen: every op completes on its own
    retry.  Failures in sequence on one op still exhaust it."""
    cloud, kv, wrapped = make_wrapped()
    kv.faults = ScriptedInjector(["timeout"] * 16)
    ctx = OpContext()
    ops = [cloud.env.process(wrapped.put_item(ctx, "t", f"k{i}", {"v": i}))
           for i in range(16)]
    cloud.run(until=cloud.now + 5_000)
    assert all(op.processed and op.ok for op in ops)
    assert kv.faults.injected["timeout"] == 16
    assert wrapped._retries.labels(store="system", op="put_item",
                                   error="StorageTimeout").value == 16

    kv.faults = ScriptedInjector(["timeout"] * MAX_ATTEMPTS)
    with pytest.raises(StorageUnavailable):
        cloud.run_process(wrapped.put_item(ctx, "t", "k", {}))


def test_backoff_consumes_virtual_time_only_on_retries():
    cloud, kv, wrapped = make_wrapped()
    wrapped._jitter_u = lambda: 0.5           # jitter factor exactly 1
    ctx = OpContext()
    cloud.run_process(wrapped.put_item(ctx, "t", "clean", {}))
    clean = cloud.now
    kv.faults = ScriptedInjector(["throttle", "throttle"])
    t0 = cloud.now
    cloud.run_process(wrapped.put_item(ctx, "t", "flaky", {}))
    assert cloud.now - t0 >= clean + 10.0 + 20.0  # two backoffs waited


def test_partial_write_replays_instead_of_reapplying():
    """The ambiguous failure: the first attempt applied server-side and
    died after.  A blind retry would double-append; the idempotence token
    must make the replay return the recorded result."""
    cloud, kv, wrapped = make_wrapped()
    ctx = OpContext()
    cloud.run_process(wrapped.put_item(ctx, "t", "k", {"log": []}))
    kv.faults = ScriptedInjector(["partial_write"])
    cloud.run_process(wrapped.update_item(
        ctx, "t", "k", [ListAppend("log", ["entry"])]))
    item = cloud.run_process(wrapped.get_item(ctx, "t", "k"))
    assert item["log"] == ["entry"]           # exactly once, not twice


def test_exhaustion_raises_storage_unavailable_with_cause():
    cloud, kv, wrapped = make_wrapped()
    kv.faults = ScriptedInjector(["throttle"] * 10)
    with pytest.raises(StorageUnavailable,
                       match=f"after {MAX_ATTEMPTS} attempts") as failed:
        cloud.run_process(wrapped.put_item(OpContext(), "t", "k", {}))
    assert "injected throttle" in str(failed.value.cause)
    assert kv.faults.injected["throttle"] == MAX_ATTEMPTS
    assert wrapped._exhausted.labels(
        store="system", op="put_item").value == 1


def test_condition_failed_is_never_retried():
    cloud, kv, wrapped = make_wrapped()
    ctx = OpContext()
    cloud.run_process(wrapped.put_item(ctx, "t", "k", {"v": 1}))
    with pytest.raises(ConditionFailed):
        cloud.run_process(wrapped.put_item(
            ctx, "t", "k", {"v": 2}, condition=Attr("v") == 99))
    assert wrapped._retries.labels(
        store="system", op="put_item", error="ConditionFailed").value == 0


# ------------------------------------------------------- the op tables
class RecordingStore:
    """A stand-in store: every table op fails once with a timeout, then
    answers with what it was called with."""

    def __init__(self, env, ops, region=None):
        self.env = env
        self.calls = []
        # A store that can lose a reply says so through ``faults``.
        self.faults = ScriptedInjector([])
        if region is not None:
            self.region = region
        else:
            self.regions = ["r1", "r2"]
        for op in ops:
            setattr(self, op, self._op(op))

    def _op(self, op):
        def call(*args, **kwargs):
            self.calls.append((op, args, kwargs))
            yield self.env.timeout(1.0)
            if sum(1 for c in self.calls if c[0] == op) == 1:
                raise StorageTimeout(f"{op}: scripted")
            return (op, args, kwargs)
        return call

    def peek(self, *args):
        return ("peek", args)


@pytest.mark.parametrize("ops,region", [(KV_OPS, "eu-1"), (USER_OPS, None)])
def test_every_table_op_retries_and_nothing_else_is_touched(ops, region):
    """The whole forwarding contract, from the tables, for a store that is
    one regional endpoint and for one that takes the region per call: each
    named op is retried with its arguments intact and carries one token,
    a fresh list per request, across its attempts iff the table says so;
    anything not in the table passes through."""
    cloud = Cloud.aws(seed=3)
    inner = RecordingStore(cloud.env, ops, region)
    proxy = RetryingStore(inner, "x", ops, cloud.env,
                          lambda: random.Random(0), MetricsRegistry())
    assert proxy.inner is inner
    assert proxy.peek("r", "/p") == ("peek", ("r", "/p"))   # pass-through
    assert not set(vars(proxy)) & {"peek", "fault_points", "table"}
    tokens, ctx = [], OpContext()
    for n, (op, tokened) in enumerate(ops.items(), start=1):
        got = cloud.run_process(getattr(proxy, op)(ctx, "r1", "arg", k=n))
        first, second = [c for c in inner.calls if c[0] == op]
        assert first[1] == second[1] == (ctx, "r1", "arg")
        want = {"k": n, "token": []} if tokened else {"k": n}
        assert first[2] == second[2] == got[2] == want
        if tokened:  # the same record rides every attempt
            assert first[2]["token"] is second[2]["token"]
            tokens.append(first[2]["token"])
        assert proxy._retries.labels(store="x", op=op,
                                     error="StorageTimeout").value == 1
    assert len({id(token) for token in tokens}) == sum(ops.values())


#: Each tokened op as one request against a table holding ``k`` and
#: ``gone``, and the keys it writes.  A conditional put or delete that
#: re-applied would raise; an append that re-applied would double.
_MUTATIONS = {
    "put_item": (lambda s, ctx: s.put_item(
        ctx, "t", "fresh", {"v": 1}, condition=Attr("v").not_exists()),
        ["fresh"]),
    "update_item": (lambda s, ctx: s.update_item(
        ctx, "t", "k", [ListAppend("log", ["x"])]), ["k"]),
    "delete_item": (lambda s, ctx: s.delete_item(
        ctx, "t", "gone", condition=Attr("v") == 1), ["gone"]),
    "batch_put": (lambda s, ctx: s.batch_put(
        ctx, "t", {"b1": {"v": 1}, "b2": {"v": 2}}), ["b1", "b2"]),
    "transact_update": (lambda s, ctx: s.transact_update(
        ctx, [("t", "k", [ListAppend("log", ["x"])], None)]), ["k"]),
}


@pytest.mark.parametrize("op", sorted(_MUTATIONS))
def test_a_lost_reply_replays_the_recorded_result(op):
    """A mutation whose first attempt applies and loses its reply applies
    exactly once — one stream record per key — whether a later attempt
    replays the token (``partial_write, throttle, partial_write``: the
    third attempt's lost reply is a replay, so it answers) or every later
    attempt is throttled and the loop gives up.  The replay answers what
    the applying attempt did, one token rides every attempt, and an
    unarmed store is handed no token at all."""
    assert set(_MUTATIONS) == {o for o, tokened in KV_OPS.items() if tokened}
    call, keys = _MUTATIONS[op]

    def run(schedule):
        cloud = Cloud.aws(seed=11)
        kv = cloud.kv("dynamodb:test")
        table = kv.create_table("t")
        table._store("k", {"log": []})
        table._store("gone", {"v": 1})
        tokens, real = [], getattr(kv, op)

        def spy(*args, **kwargs):
            tokens.append(kwargs.get("token", "none"))
            return real(*args, **kwargs)

        setattr(kv, op, spy)
        wrapped = RetryingStore(kv, "system", KV_OPS, cloud.env,
                                lambda: random.Random(0), MetricsRegistry())
        if schedule is not None:
            kv.faults = ScriptedInjector(schedule)
        written = []
        table.stream_listeners.append(lambda record: written.append(record.key))
        try:
            result = cloud.run_process(call(wrapped, OpContext()))
        except StorageUnavailable:
            result = StorageUnavailable
        return result, written, tokens

    clean, written, tokens = run(None)
    assert written == keys and tokens == ["none"]
    replayed = ["partial_write", "throttle", "partial_write"]
    exhausted = ["partial_write"] + ["throttle"] * (MAX_ATTEMPTS - 1)
    for schedule, answer in ((replayed, clean), (exhausted, StorageUnavailable)):
        result, written, tokens = run(schedule)
        assert result == answer and written == keys, schedule
        assert len(tokens) == len(schedule)
        assert all(token is tokens[0] for token in tokens)
        assert len(tokens[0]) == 1            # recorded once, by the apply


def test_a_failed_retry_loop_retires_its_token():
    """The first attempt applies and loses its reply, the rest are
    throttled and exhaust the loop: the write applied once.  Its token
    was the loop's own, so nothing is left to retire in the store."""
    cloud, kv, wrapped = make_wrapped()
    kv.faults = ScriptedInjector(
        ["partial_write"] + ["throttle"] * (MAX_ATTEMPTS - 1))
    with pytest.raises(StorageUnavailable,
                       match=f"after {MAX_ATTEMPTS} attempts"):
        cloud.run_process(wrapped.put_item(OpContext(), "t", "k", {"v": 1}))
    assert kv.table("t").raw("k") == {"v": 1}
    drawn = {kind: n for kind, n in kv.faults.injected.items() if n}
    assert drawn == {"partial_write": 1, "throttle": MAX_ATTEMPTS - 1}


def test_a_token_rides_only_where_a_reply_can_be_lost(monkeypatch):
    """Only an armed injector raises a transient error, so a fault-free
    store is never retried and its mutators get no token at all; once
    armed, each mutation carries a fresh one, and the attempt that applied
    recorded its result in it."""
    seen = []
    for op in (op for op, tokened in KV_OPS.items() if tokened):
        def spy(self, *args, _real=getattr(KeyValueStore, op), **kwargs):
            seen.append(kwargs.get("token", "none"))
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(KeyValueStore, op, spy)
    cloud, service = make_service()
    client = service.connect()
    client.create("/n", b"")
    for i in range(1000):
        client.set_data("/n", b"%d" % i)
    assert len(seen) > 1000 and set(seen) == {"none"}
    seen.clear()
    service.system_store.inner.faults = ScriptedInjector([])
    client.set_data("/n", b"armed")
    cloud.run(until=cloud.now + 5_000)        # the write's tail lands too
    assert seen and all(isinstance(token, list) and len(token) == 1
                        for token in seen)
    assert len({id(token) for token in seen}) == len(seen)


# --------------------------------------------------------------- outages
def test_an_exhausted_user_store_fails_the_leader_not_the_simulation():
    """The paper's default deployment with the user store timing out: a
    ``create`` replicates two images (node + parent) side by side and both
    exhaust their retries.  The first failure fails the leader invocation,
    which the queue redelivers; the second fails for nobody — it must not
    escape ``run()`` and end the simulation.  Once the faults stop, the
    redelivery completes the create, and the node exists exactly once."""
    cloud, service = make_service(seed=7)
    client = service.connect()
    client.create("/a", b"x")
    point, = service.user_store.inner.fault_points()
    point.faults = ScriptedInjector(["timeout"] * (2 * MAX_ATTEMPTS))
    leader = service.leader_fns[0]
    failures = leader.failures

    created = client.create_async("/a/b", b"y")
    cloud.run(until=cloud.now + 5_000)
    assert point.faults.injected["timeout"] == 2 * MAX_ATTEMPTS
    exhausted = service.metrics_snapshot()[
        "fk_storage_retry_exhausted_total"]["values"]
    assert exhausted == {'store="user",op="update_metadata"': 1.0,
                         'store="user",op="write_node"': 1.0}
    assert leader.failures == failures + 1               # failed, redelivered
    assert created.done and created.wait() == "/a/b"
    assert client.get_children("/a") == ["b"]
    _data, parent = client.get_data("/a")
    _data, node = client.get_data("/a/b")
    assert (parent.cversion, parent.num_children, node.version) == (1, 1, 0)


def test_a_session_lives_through_a_system_store_outage():
    """Ten seconds of system-store timeouts, spanning a heartbeat sweep and
    a write of the session.  Every op that meets the outage fails its
    invocation; the write's deliveries run out, so it answers
    ``system_failure`` and leaves the session SUSPENDED.  But the outage
    costs no session: it ends neither LOST nor evicted, and its next write
    after the outage heals it."""
    cloud, service = make_service(user_store="mem")
    client = service.connect()
    client.create("/a", b"x")
    cloud.run(until=55_000)
    inner = service.system_store.inner
    inner.faults = OutageInjector(cloud.env, until=cloud.now + 10_000)

    dropped = client.set_data_async("/a", b"y")
    cloud.run(until=cloud.now + 30_000)
    with pytest.raises(RequestFailedError, match="system_failure"):
        dropped.wait()
    assert client.state == KeeperState.SUSPENDED
    assert not client.closed and not client.evicted
    assert client.session_id in service.clients

    client.set_data("/a", b"z")
    assert client.state == KeeperState.CONNECTED
    assert client.get_data("/a")[0] == b"z"


def test_an_answered_heartbeat_heals_a_suspended_session():
    """A session the outage above left SUSPENDED, with no request of its
    own after it, is CONNECTED again once the next heartbeat sweep finds
    it answering."""
    cloud, service = make_service(user_store="mem")
    client = service.connect()
    client.create("/a", b"x")
    cloud.run(until=55_000)
    inner = service.system_store.inner
    inner.faults = OutageInjector(cloud.env, until=cloud.now + 10_000)
    dropped = client.set_data_async("/a", b"y")
    cloud.run(until=cloud.now + 30_000)
    with pytest.raises(RequestFailedError, match="system_failure"):
        dropped.wait()
    assert client.state == KeeperState.SUSPENDED

    cloud.run(until=2 * HEARTBEAT_PERIOD_MS + 5_000)  # past the next sweep
    assert client.state == KeeperState.CONNECTED
    assert client.session_id in service.clients and not client.closed


# ------------------------------------------------------------- fingerprint
def test_retry_layer_is_invisible_without_faults():
    """Acceptance gate: with no fault the boundary must not move a run by
    a single event — the same op script on a raw store and on the proxy,
    over twin seeded clouds, completes at the same instants for the same
    dollars, and the jitter stream is never created."""

    def run(wrap):
        cloud = Cloud.aws(seed=97)
        store = cloud.kv("dynamodb:system")
        store.create_table("t")
        if wrap:
            store = RetryingStore(
                store, "system", KV_OPS, cloud.env,
                lambda: cloud.rng.stream("storage-retry:system"),
                MetricsRegistry())
        ctx = OpContext()
        trace = []

        def step(gen):
            try:
                trace.append(repr(cloud.run_process(gen)))
            except ConditionFailed:
                trace.append("condition failed")
            trace.append(cloud.now)

        for i in range(12):
            step(store.put_item(ctx, "t", f"n{i}",
                                {"data": b"x" * (i * 512), "v": 0, "log": []}))
        for i in range(12):
            step(store.update_item(ctx, "t", f"n{i}",
                                   [ListAppend("log", [i])],
                                   condition=Attr("v") == i % 2))
            step(store.get_item(ctx, "t", f"n{i}"))
        step(store.transact_update(
            ctx, [("t", "n0", [ListAppend("log", ["t"])], None)]))
        step(store.batch_put(ctx, "t", {"b1": {"v": 1}, "b2": {"v": 2}}))
        step(store.scan(ctx, "t"))
        step(store.delete_item(ctx, "t", "n1"))
        trace.append(cloud.meter.total)
        assert not any(name.startswith("storage-retry:")
                       for name in cloud.rng._streams)
        return trace

    assert run(wrap=True) == run(wrap=False)


def test_a_rearm_keeps_each_injector_and_its_count():
    """Re-arming mid-run sets the rate of the injectors the first arm
    made: ``fk_storage_faults_injected`` holds its value across the
    re-arm and keeps counting, and a rate outside [0, 1] is refused
    without touching the armed ones."""
    cloud, service = make_service(seed=7)
    client = service.connect()
    injectors = service.arm_storage_faults(0.3)

    def injected():
        return total(service, "fk_storage_faults_injected")

    for i in range(10):
        client.create(f"/n{i}", b"")
    counted = injected()
    assert counted > 0
    rearmed = service.arm_storage_faults(0.3)
    assert injected() == counted
    assert rearmed == injectors
    for i in range(10):
        client.create(f"/m{i}", b"")
    assert injected() > counted
    with pytest.raises(ValueError):
        service.arm_storage_faults(1.5)
    assert {injector.rate for injector in injectors} == {0.3}
    assert [point.faults for point in (
        service.system_store.inner,
        *service.user_store.inner.fault_points())] == injectors
