"""The self-healing storage layer: retry policy, backoff, idempotent
replay, circuit breaker, and the session-state consequences."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import Cloud, ListAppend
from repro.cloud.context import OpContext
from repro.cloud.errors import (ConditionFailed, StorageTimeout,
                                StorageUnavailable)
from repro.cloud.expressions import Attr
from repro.cloud.faults import FaultInjector
from repro.faaskeeper import FaaSKeeperConfig
from repro.faaskeeper.layout import SYSTEM_NODES, SYSTEM_SESSIONS
from repro.faaskeeper.metrics import MetricsRegistry
from repro.faaskeeper.model import KeeperState
from repro.faaskeeper.retry import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    KV_OPS,
    USER_OPS,
    CircuitBreaker,
    RetryingStore,
    RetryPolicy,
)
from repro.faaskeeper.userstore import BACKENDS, make_user_store

from .conftest import make_service


class ScriptedInjector(FaultInjector):
    """Deterministic fault script: fire the listed kinds in order, then
    behave cleanly.  Bypasses the RNG draw so tests are exact."""

    def __init__(self, env, kinds):
        super().__init__(env, rng=random.Random(0), rate=1.0)
        self._script = list(kinds)

    def draw(self, op, mutating):
        if not self._script:
            return None
        kind = self._script.pop(0)
        if kind is not None:
            self.injected[kind] += 1
        return kind


class FakeEnv:
    def __init__(self):
        self.now = 0.0


def make_wrapped(seed=11, **policy):
    cloud = Cloud.aws(seed=seed)
    kv = cloud.kv("dynamodb:test")
    kv.create_table("t")
    wrapped = RetryingStore(
        kv, "system", KV_OPS, cloud.env,
        lambda: cloud.rng.stream("test-retry"),
        RetryPolicy(**policy), MetricsRegistry())
    return cloud, kv, wrapped


def shrink_breakers(store, threshold, cooldown_ms):
    """The service deploys ``RetryPolicy()`` (threshold 8, cooldown 10 s);
    a test that wants a trip inside a lock lease swaps in a small policy
    before the first round trip creates a breaker from it."""
    store.policy = dataclasses.replace(
        store.policy, breaker_threshold=threshold,
        breaker_cooldown_ms=cooldown_ms)
    store.breakers.clear()


# -------------------------------------------------------------- RetryPolicy
def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(base_ms=10.0, cap_ms=100.0, jitter=0.0)
    waits = [policy.backoff_ms(n, u=0.5) for n in (1, 2, 3, 4, 5, 6)]
    assert waits == [10.0, 20.0, 40.0, 80.0, 100.0, 100.0]


def test_backoff_jitter_bounds():
    policy = RetryPolicy(base_ms=100.0, cap_ms=1e9, jitter=0.5)
    assert policy.backoff_ms(1, u=0.0) == pytest.approx(75.0)
    assert policy.backoff_ms(1, u=1.0) == pytest.approx(125.0)


# ----------------------------------------------------------- CircuitBreaker
def test_breaker_trips_after_threshold_and_recovers():
    env = FakeEnv()
    transitions = []
    breaker = CircuitBreaker(env, threshold=3, cooldown_ms=100.0,
                             on_transition=transitions.append)
    assert breaker.state == BREAKER_CLOSED
    for _ in range(2):
        breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED and breaker.allow()
    breaker.record_failure()
    assert breaker.state == BREAKER_OPEN
    assert not breaker.allow()                # shedding
    env.now = 99.0
    assert not breaker.allow()                # still cooling down
    env.now = 100.0
    assert breaker.allow()                    # the half-open probe
    assert breaker.state == BREAKER_HALF_OPEN
    assert not breaker.allow()                # only one probe in flight
    breaker.record_success()
    assert breaker.state == BREAKER_CLOSED and breaker.allow()
    assert transitions == [BREAKER_OPEN, BREAKER_HALF_OPEN, BREAKER_CLOSED]


def test_breaker_failed_probe_reopens_with_fresh_cooldown():
    env = FakeEnv()
    breaker = CircuitBreaker(env, threshold=1, cooldown_ms=100.0)
    breaker.record_failure()
    env.now = 100.0
    assert breaker.allow()
    breaker.record_failure()                  # probe failed
    assert breaker.state == BREAKER_OPEN
    assert breaker.opened_at == 100.0         # cooldown restarted
    assert not breaker.allow()


def test_success_resets_the_consecutive_failure_count():
    env = FakeEnv()
    breaker = CircuitBreaker(env, threshold=3, cooldown_ms=100.0)
    for _ in range(2):
        breaker.record_failure()
    breaker.record_success()
    for _ in range(2):
        breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED    # never 3 *consecutive*


def test_cooldown_is_the_probe_spacing():
    """One rate limit: every cooldown admits exactly one probe, and a
    failed probe re-opens for a full cooldown."""
    env = FakeEnv()
    breaker = CircuitBreaker(env, threshold=1, cooldown_ms=100.0)
    breaker.record_failure()
    admitted = 0
    for now in range(0, 400, 10):
        env.now = float(now)
        if breaker.allow():
            admitted += 1
            breaker.record_failure()
    assert admitted == 3                      # t = 100, 200, 300


def test_abandoned_probe_gives_the_slot_back():
    env = FakeEnv()
    breaker = CircuitBreaker(env, threshold=1, cooldown_ms=100.0)
    breaker.record_failure()
    env.now = 100.0
    assert breaker.allow()
    breaker.release()                         # no verdict on the store
    assert breaker.state == BREAKER_OPEN
    assert breaker.allow()                    # the next request probes
    breaker.record_success()
    breaker.release()                         # only a probe has a slot
    assert breaker.state == BREAKER_CLOSED


_STEPS = st.lists(st.tuples(
    st.sampled_from(["allow", "answer", "transient", "abandon"]),
    st.sampled_from([0.0, 1.0, 40.0, 100.0, 250.0]),
    st.integers(0, 7)), max_size=60)


@settings(max_examples=300, deadline=None)
@given(steps=_STEPS, threshold=st.integers(1, 3))
def test_breaker_half_open_never_outlives_its_probe(steps, threshold):
    """Interleaved attempts against one breaker, driven the way the retry
    loop drives it and ending the three ways an attempt can (the store
    answers, a transient error, abandoned): HALF_OPEN never persists with
    no probe in flight, and an OPEN breaker always admits a probe one
    cooldown after it opened."""
    env = FakeEnv()
    breaker = CircuitBreaker(env, threshold=threshold, cooldown_ms=100.0)
    in_flight = []      # per attempt: (admitted as the probe?, verdicts then)
    for action, advance, pick in steps:
        env.now += advance
        if action == "allow":
            was_open = breaker.state == BREAKER_OPEN
            due = env.now - breaker.opened_at >= breaker.cooldown_ms
            admitted = breaker.allow()
            if was_open:
                assert admitted == due
            if admitted:
                in_flight.append((breaker.state == BREAKER_HALF_OPEN,
                                  breaker.verdicts))
        elif in_flight:
            probing, began = in_flight.pop(pick % len(in_flight))
            if action == "answer":
                breaker.record_success()
                assert breaker.state == BREAKER_CLOSED
            elif action == "transient":
                counted = began == breaker.verdicts
                half_open = breaker.state == BREAKER_HALF_OPEN
                breaker.record_failure(began)
                if counted and half_open:     # the probe failed
                    assert breaker.state == BREAKER_OPEN
            elif probing:
                breaker.release()
        if breaker.state == BREAKER_HALF_OPEN:
            assert any(probing for probing, _began in in_flight)
    if breaker.state == BREAKER_OPEN:
        env.now = breaker.opened_at + breaker.cooldown_ms
        assert breaker.allow() and breaker.state == BREAKER_HALF_OPEN


# ------------------------------------------------------------- retry engine
def test_transient_faults_are_absorbed():
    cloud, kv, wrapped = make_wrapped()
    kv.faults = ScriptedInjector(cloud.env, ["throttle", "conn_reset"])
    ctx = OpContext()

    def flow():
        yield from wrapped.put_item(ctx, "t", "k", {"a": 1})
        return (yield from wrapped.get_item(ctx, "t", "k"))

    assert cloud.run_process(flow()) == {"a": 1}
    assert wrapped._retries.labels(store="system", op="put_item",
                                   error="ThrottlingError").value == 1


def test_backoff_consumes_virtual_time_only_on_retries():
    cloud, kv, wrapped = make_wrapped(base_ms=10.0, cap_ms=100.0, jitter=0.0)
    ctx = OpContext()
    cloud.run_process(wrapped.put_item(ctx, "t", "clean", {}))
    clean = cloud.now
    kv.faults = ScriptedInjector(cloud.env, ["throttle", "throttle"])
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
    kv.faults = ScriptedInjector(cloud.env, ["partial_write"])
    cloud.run_process(wrapped.update_item(
        ctx, "t", "k", [ListAppend("log", ["entry"])]))
    item = cloud.run_process(wrapped.get_item(ctx, "t", "k"))
    assert item["log"] == ["entry"]           # exactly once, not twice


def test_exhaustion_raises_storage_unavailable_with_cause():
    cloud, kv, wrapped = make_wrapped(max_attempts=3, base_ms=1.0, jitter=0.0,
                                      breaker_threshold=100)
    kv.faults = ScriptedInjector(cloud.env, ["throttle"] * 10)
    with pytest.raises(StorageUnavailable, match="after 3 attempts"):
        cloud.run_process(wrapped.put_item(OpContext(), "t", "k", {}))
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


def test_a_burst_of_overlapping_failures_is_one_failure():
    """Sixteen concurrent ops whose injected timeouts land together say one
    thing about the endpoint, not sixteen things in a row: the breaker
    stays CLOSED and every op completes on its retry.  Failures in
    sequence still trip it at the threshold."""
    cloud, kv, wrapped = make_wrapped()
    kv.faults = ScriptedInjector(cloud.env, ["timeout"] * 16)
    ctx = OpContext()
    ops = [cloud.env.process(wrapped.put_item(ctx, "t", f"k{i}", {"v": i}))
           for i in range(16)]
    cloud.run(until=cloud.now + 5_000)
    breaker = wrapped.breakers[kv.region]
    assert breaker.state == BREAKER_CLOSED
    assert all(op.processed and op.ok for op in ops)
    assert kv.faults.injected["timeout"] == 16

    cloud, kv, wrapped = make_wrapped(max_attempts=8)
    kv.faults = ScriptedInjector(cloud.env, ["timeout"] * 8)
    with pytest.raises(StorageUnavailable):
        cloud.run_process(wrapped.put_item(ctx, "t", "k", {}))
    assert wrapped.breakers[kv.region].state == BREAKER_OPEN


def test_open_breaker_sheds_without_touching_the_store():
    cloud, kv, wrapped = make_wrapped(max_attempts=2, base_ms=1.0, jitter=0.0,
                                      breaker_threshold=2)
    kv.faults = ScriptedInjector(cloud.env, ["throttle"] * 100)
    with pytest.raises(StorageUnavailable):
        cloud.run_process(wrapped.put_item(OpContext(), "t", "k", {}))
    breaker = wrapped.breakers[kv.region]
    assert breaker.state == BREAKER_OPEN
    drawn_before = len(kv.faults._script)
    with pytest.raises(StorageUnavailable, match="circuit open"):
        cloud.run_process(wrapped.put_item(OpContext(), "t", "k2", {}))
    assert len(kv.faults._script) == drawn_before  # shed, not attempted


# ------------------------------------------------------- the op tables
class RecordingStore:
    """A stand-in store: every table op fails once with a timeout, then
    answers with what it was called with, and it records retired tokens."""

    def __init__(self, env, ops, region=None):
        self.env = env
        self.calls = []
        self.retired = []
        # A store that can lose a reply says so through ``faults``.
        self.faults = ScriptedInjector(env, [])
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

    def retire_token(self, token):
        self.retired.append(token)


@pytest.mark.parametrize("ops,region", [(KV_OPS, "eu-1"), (USER_OPS, None)])
def test_every_table_op_retries_and_nothing_else_is_touched(ops, region):
    """The whole forwarding contract, from the tables: each named op is
    retried with its arguments intact, carries one token across attempts
    iff the table says so and retires it when done, is keyed to the store's
    own region or to the call's; anything not in the table passes through."""
    cloud = Cloud.aws(seed=3)
    inner = RecordingStore(cloud.env, ops, region)
    proxy = RetryingStore(inner, "x", ops, cloud.env, lambda: None,
                          RetryPolicy(jitter=0.0), MetricsRegistry())
    assert proxy.inner is inner
    assert proxy.peek("r", "/p") == ("peek", ("r", "/p"))   # pass-through
    assert not set(vars(proxy)) & {"peek", "fault_points", "table"}
    minted = 0
    for n, (op, tokened) in enumerate(ops.items(), start=1):
        got = cloud.run_process(getattr(proxy, op)("ctx", "r1", "arg", k=n))
        first, second = [c for c in inner.calls if c[0] == op]
        assert first[1] == second[1] == ("ctx", "r1", "arg")
        minted += tokened
        want = {"k": n, "token": f"x-t{minted}"} if tokened else {"k": n}
        assert first[2] == second[2] == got[2] == want
        assert inner.retired == [f"x-t{t}" for t in range(1, minted + 1)]
        assert proxy._retries.labels(store="x", op=op,
                                     error="StorageTimeout").value == 1
    assert list(proxy.breakers) == [region or "r1"]


def test_every_mutator_replays_its_token_after_a_partial_write():
    """Against the real key-value store: each tokened op applies exactly
    once when its first attempt dies between apply and reply."""
    cloud, kv, wrapped = make_wrapped()
    ctx = OpContext()
    cloud.run_process(wrapped.put_item(ctx, "t", "k", {"log": [], "n": 0}))
    append = [ListAppend("log", ["x"])]
    calls = {
        "put_item": lambda: wrapped.put_item(
            ctx, "t", "fresh", {"v": 1}, condition=Attr("v").not_exists()),
        "update_item": lambda: wrapped.update_item(ctx, "t", "k", append),
        "delete_item": lambda: wrapped.delete_item(
            ctx, "t", "fresh", condition=Attr("v") == 1),
        "batch_put": lambda: wrapped.batch_put(
            ctx, "t", {"b1": {"v": 1}, "b2": {"v": 2}}),
        "transact_update": lambda: wrapped.transact_update(
            ctx, [("t", "k", append, None)]),
    }
    assert set(calls) == {op for op, tokened in KV_OPS.items() if tokened}
    for op, call in calls.items():
        kv.faults = ScriptedInjector(cloud.env, ["partial_write"])
        cloud.run_process(call())             # a re-apply would raise / double
        assert kv.faults.injected["partial_write"] == 1, op
    item = cloud.run_process(wrapped.get_item(ctx, "t", "k"))
    assert item["log"] == ["x", "x"]          # update + transact, once each
    assert cloud.run_process(wrapped.get_item(ctx, "t", "fresh")) is None


def test_a_failed_retry_loop_retires_its_token():
    """The first attempt applies and loses its reply, the second is
    throttled and exhausts the loop: nothing can replay the token now, so
    the ledger does not keep it for a window."""
    cloud, kv, wrapped = make_wrapped(max_attempts=2, jitter=0.0)
    kv.faults = ScriptedInjector(cloud.env, ["partial_write", "throttle"])
    with pytest.raises(StorageUnavailable, match="after 2 attempts"):
        cloud.run_process(wrapped.put_item(OpContext(), "t", "k", {"v": 1}))
    assert kv.table("t").raw("k") == {"v": 1}
    assert (len(kv._token_results), len(kv._token_previous)) == (0, 0)


def test_a_token_rides_only_where_a_reply_can_be_lost(monkeypatch):
    """Only an armed injector raises a transient error, so a fault-free
    store is never retried and its token ledger must stay empty rather
    than pin every superseded image for a token window; once armed, a
    mutation carries its token again, recorded while its retry loop runs
    and retired when the loop ends."""
    cloud, service = make_service()
    client = service.connect()
    client.create("/n", b"")
    for i in range(1000):
        client.set_data("/n", b"%d" % i)
    kv = service.system_store.inner
    assert (len(kv._token_results), len(kv._token_previous)) == (0, 0)
    kv.faults = ScriptedInjector(cloud.env, [])
    held, retire = [], kv.retire_token

    def spy(token):
        held.append(token in kv._token_results)
        retire(token)

    monkeypatch.setattr(kv, "retire_token", spy)
    client.set_data("/n", b"armed")
    assert held and all(held)
    assert (len(kv._token_results), len(kv._token_previous)) == (0, 0)


@pytest.mark.parametrize("scheme", sorted(BACKENDS))
def test_user_store_breakers_are_per_call_region(scheme):
    """A user backend serves every region: the proxy keys its breakers by
    the call's region on every backend (``mem`` included,
    whose one in-process fault point is labelled region "all")."""
    cloud = Cloud.aws(seed=4)
    config = FaaSKeeperConfig(user_store=scheme, regions=["r1", "r2"])
    proxy = RetryingStore(make_user_store(cloud, config), "user", USER_OPS,
                          cloud.env, lambda: None, RetryPolicy(),
                          MetricsRegistry())
    for region in config.regions:
        cloud.run_process(proxy.read_node(OpContext(region=region), region,
                                          "/nope"))
    assert sorted(proxy.breakers) == ["r1", "r2"]


# ------------------------------------------------------------ the settle rule
def _tripped(**policy):
    """A store whose breaker just tripped and whose outage then ended."""
    cloud, kv, wrapped = make_wrapped(max_attempts=2, base_ms=1.0, jitter=0.0,
                                      breaker_threshold=2,
                                      breaker_cooldown_ms=50.0, **policy)
    ctx = OpContext()
    cloud.run_process(wrapped.put_item(ctx, "t", "k", {"v": 1}))
    kv.faults = ScriptedInjector(cloud.env, ["throttle"] * 2)
    with pytest.raises(StorageUnavailable):
        cloud.run_process(wrapped.put_item(ctx, "t", "k", {"v": 2}))
    breaker = wrapped.breakers[kv.region]
    assert breaker.state == BREAKER_OPEN
    cloud.run(until=cloud.now + 60.0)         # cooldown served
    return cloud, kv, wrapped, ctx, breaker


def test_probe_answered_with_condition_failed_closes_the_breaker():
    """The wedge: a HALF_OPEN probe the store *answers* with a failed
    condition used to leave the probe slot taken forever — every later
    request shed on a healthy store."""
    cloud, kv, wrapped, ctx, breaker = _tripped()
    with pytest.raises(ConditionFailed):
        cloud.run_process(wrapped.put_item(
            ctx, "t", "k", {"v": 3}, condition=Attr("v") == 99))
    assert breaker.state == BREAKER_CLOSED
    assert cloud.run_process(wrapped.get_item(ctx, "t", "k")) == {"v": 1}


def test_abandoned_probe_does_not_wedge_the_breaker():
    """An attempt that ends with no word from the store — a caller bug, a
    generator closed mid-call — gives the probe slot back."""
    cloud, kv, wrapped, ctx, breaker = _tripped()
    with pytest.raises(TypeError):            # never reaches the store
        cloud.run_process(wrapped.get_item(ctx, "t", "k", bogus=True))
    assert breaker.state == BREAKER_OPEN
    probe = wrapped.get_item(ctx, "t", "k")
    next(probe)                               # admitted, now in flight
    assert breaker.state == BREAKER_HALF_OPEN
    probe.close()                             # its process is torn down
    assert breaker.state == BREAKER_OPEN
    assert cloud.run_process(wrapped.get_item(ctx, "t", "k")) == {"v": 1}
    assert breaker.state == BREAKER_CLOSED


def test_contended_lock_probe_heals_the_deployment():
    """Service level: the first request through the healing breaker is a
    contended ``node_lock.acquire`` — a ConditionFailed by design.  The
    breaker must close on it, and the suspended session heal."""
    cloud, service = make_service(seed=5, user_store="mem")
    store = service.system_store
    # cooldown 100 ms: the held lock is still inside LOCK_MAX_HOLD_MS
    shrink_breakers(store, threshold=2, cooldown_ms=100.0)
    client = service.connect()
    client.create("/n", b"x")
    ctx = service.system_ctx
    held = cloud.run_process(service.node_lock.acquire(ctx, "/n"))
    assert held is not None
    store.inner.faults = ScriptedInjector(cloud.env, ["throttle"] * 5)
    with pytest.raises(StorageUnavailable):
        cloud.run_process(store.get_item(ctx, SYSTEM_NODES, "/n"))
    breaker = store.breakers[store.inner.region]
    assert breaker.state == BREAKER_OPEN
    assert client.state == KeeperState.SUSPENDED
    store.inner.faults = None
    cloud.run(until=cloud.now + 150.0)
    assert cloud.run_process(service.node_lock.acquire(ctx, "/n")) is None
    assert breaker.state == BREAKER_CLOSED
    assert cloud.run_process(service.node_lock.release(ctx, held))
    client.set_data("/n", b"y")
    assert client.state == KeeperState.CONNECTED


def test_open_user_store_breaker_fails_the_leader_not_the_simulation():
    """The paper's default deployment with the user store shedding: a
    ``create`` replicates two images (node + parent) side by side and both
    are shed.  The first failure fails the leader invocation, which the
    queue redelivers; the second fails for nobody — it used to escape
    ``run()`` and end the simulation."""
    cloud, service = make_service(seed=7)
    client = service.connect()
    client.create("/a", b"x")
    breaker = service.user_store.breaker(service.config.primary_region)
    for _ in range(breaker.threshold):
        breaker.record_failure()
    assert breaker.state == BREAKER_OPEN

    created = client.create_async("/a/b", b"y")
    cloud.run(until=cloud.now + 3_000)
    leader = service.leader_fns[0]
    assert leader.failures > 1 and not created.done     # redelivered, shed
    cloud.run(until=cloud.now + 8_000)                   # cooldown served
    assert created.wait() == "/a/b"
    assert breaker.state == BREAKER_CLOSED
    # ... and the node exists exactly once, after all those deliveries.
    assert client.get_children("/a") == ["b"]
    _data, parent = client.get_data("/a")
    _data, node = client.get_data("/a/b")
    assert (parent.cversion, parent.num_children, node.version) == (1, 1, 0)


# ------------------------------------------------------- session-state arc
def test_breaker_open_suspends_sessions_then_eviction_loses_them():
    """Retry exhaustion under a persistent outage: SUSPENDED while the
    breaker sheds, LOST once the eviction close lands."""
    cloud, service = make_service(user_store="mem")
    client = service.connect()
    cloud.run(until=cloud.now + 5_000)
    assert client.state == KeeperState.CONNECTED

    inner = service.system_store.inner
    inner.faults = ScriptedInjector(cloud.env, ["throttle"] * 1000)
    ctx = OpContext(region=service.config.primary_region)
    # 5 attempts fail (exhaustion), the next call's third failure is the
    # 8th consecutive: the breaker opens and suspends the session.
    for _ in range(2):
        with pytest.raises(StorageUnavailable):
            cloud.run_process(service.system_store.get_item(
                ctx, SYSTEM_SESSIONS, client.session_id))
    assert client.state == KeeperState.SUSPENDED
    assert not client.closed                   # suspended, not killed

    # The outage outlives the session: the eviction close is LOST.
    service.on_session_closed(client.session_id, evicted=True)
    assert client.state == KeeperState.LOST
    assert client.evicted


def test_breaker_recovery_heals_instead_of_evicting():
    cloud, service = make_service(user_store="mem")
    client = service.connect()
    cloud.run(until=cloud.now + 5_000)
    inner = service.system_store.inner
    inner.faults = ScriptedInjector(cloud.env, ["throttle"] * 10)
    ctx = OpContext(region=service.config.primary_region)
    for _ in range(2):
        with pytest.raises(StorageUnavailable):
            cloud.run_process(service.system_store.get_item(
                ctx, SYSTEM_SESSIONS, client.session_id))
    assert client.state == KeeperState.SUSPENDED

    # Outage ends; after the cooldown the half-open probe closes the
    # breaker and a successful client round trip heals the session.
    inner.faults = None
    cloud.run(until=cloud.now + 11_000)
    client.create("/healed", b"x")
    assert client.state == KeeperState.CONNECTED
    assert service.system_store.breakers[
        inner.region].state == BREAKER_CLOSED


# ---------------------------------------------------------------- brown-out
def test_brownout_probe_rate_is_bounded_by_the_cooldown():
    """Seeded brown-out: a store that throttles every request for 5 s of
    virtual time while a caller keeps retrying every 10 ms.  The cooldown
    is the one rate limit on what reaches the sick endpoint."""
    duration, cooldown = 5_000.0, 50.0
    cloud, kv, wrapped = make_wrapped(seed=23, max_attempts=2, base_ms=1.0,
                                      jitter=0.0, breaker_threshold=2,
                                      breaker_cooldown_ms=cooldown)
    kv.faults = ScriptedInjector(cloud.env, ["throttle"] * 10_000)
    deadline = cloud.now + duration
    while cloud.now < deadline:
        with pytest.raises(StorageUnavailable):
            cloud.run_process(wrapped.put_item(OpContext(), "t", "k", {}))
        cloud.run(until=cloud.now + 10.0)     # caller retry cadence
    probes = wrapped._breaker_probes.labels(
        store="system", region=kv.region).value
    assert 0 < probes <= duration / cooldown + 1
    # Nothing but the trip and the probes ever reached the store.
    assert kv.faults.injected["throttle"] == 2 + probes


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
                RetryPolicy(), MetricsRegistry())
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
