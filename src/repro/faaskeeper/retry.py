"""Self-healing storage access: retry, backoff, and circuit breaking.

A single transient storage error — a throttle, a timeout, a dropped
connection — used to be session-fatal anywhere in the pipeline.  Every
deployment therefore reaches its system store and its user store through
one :class:`RetryingStore` proxy, declared by an op table and holding the
one retry loop (the shape of Kazoo's ``KazooRetry``), adapted to the
simulation's constraints:

* **Sim-clock backoff** — waits are ``env.timeout`` events on the virtual
  clock (FK001-clean: no wall-clock sleeps), exponential with a jittered
  factor drawn from a dedicated named RNG stream.  The stream is only
  created — and only drawn from — when a retry actually happens, so a
  fault-free run's RNG consumption, latency and cost are those of the raw
  store, bit for bit.
* **Idempotence-aware replay** — the op table says which operations carry
  a deterministic request token (DynamoDB ``ClientRequestToken``): every
  key-value mutator, while its store has a fault injector armed (only an
  injector raises a transient error; unarmed, nothing is retried and a
  token would only pin its image in the ledger).  If the first attempt
  died *after* applying (the ambiguous partial-write failure), the replay
  returns the recorded result instead of re-applying, so conditional
  writes re-verify rather than blind-retry and the exactly-once audits
  stay green.  User-store ops are whole-image writes (idempotent by
  construction) and re-run bodily.
* **Per-region circuit breaker** — ``RetryPolicy.breaker_threshold``
  transient failures in sequence (overlapping ones count once) trip a
  store/region to OPEN: further
  requests are shed immediately with :class:`StorageUnavailable` (and the
  deployment marks the region's sessions SUSPENDED) instead of piling
  retries onto a dead endpoint.  The cooldown *is* the probe spacing:
  after ``breaker_cooldown_ms`` of virtual time one HALF_OPEN probe is
  let through; a failed probe re-opens for a full cooldown.
* **The settle rule** — an attempt that ends in anything other than a
  transient error settles the breaker.  An answer from the store is a
  healthy round trip whatever it says (:class:`ConditionFailed` is a
  decision, not an outage: it closes a healing breaker and always
  surfaces, never retried); an attempt abandoned any other way (a
  non-storage exception, a generator closed mid-call) gives the probe slot
  back.  HALF_OPEN therefore never outlives its probe.

Retryable errors are exactly :data:`repro.cloud.errors.TRANSIENT_ERRORS`.
Observability rides the deployment's metrics registry:
``fk_storage_retries_total``, ``fk_storage_retry_exhausted_total``,
``fk_storage_breaker_state`` / ``_transitions_total`` / ``_probes_total``
/ ``_shed_total`` and the ``fk_storage_retry_backoff_ms`` histogram.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Mapping, Optional

from ..cloud.errors import TRANSIENT_ERRORS, CloudError, StorageUnavailable

__all__ = ["RetryPolicy", "CircuitBreaker", "RetryingStore", "KV_OPS",
           "USER_OPS", "BREAKER_CLOSED", "BREAKER_HALF_OPEN", "BREAKER_OPEN"]

#: Op tables: retried method name -> does it carry an idempotence token?
#: Anything a store offers beyond its table (``table``/``create_table``/
#: stream wiring, ``peek``/``wipe_region``/``fault_points``, capability
#: flags) passes through the proxy untouched.
KV_OPS: Mapping[str, bool] = {
    "get_item": False, "scan": False,
    "put_item": True, "update_item": True, "delete_item": True,
    "batch_put": True, "transact_update": True,
}
USER_OPS: Mapping[str, bool] = {
    "write_node": False, "read_node": False, "delete_node": False,
    "update_metadata": False,
}

#: Breaker states, in escalation order (also the gauge encoding).
BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half_open"
BREAKER_OPEN = "open"
_STATE_GAUGE = {BREAKER_CLOSED: 0.0, BREAKER_HALF_OPEN: 1.0,
                BREAKER_OPEN: 2.0}

#: Backoff histogram buckets (ms): finer than the latency default at the
#: low end, since base backoffs start at ~10 ms.
_BACKOFF_BUCKETS = (5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0,
                    1280.0, 2560.0, 5120.0)


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative retry + breaker policy of one store proxy."""

    max_attempts: int = 5
    base_ms: float = 10.0
    cap_ms: float = 2_000.0
    jitter: float = 0.5
    #: Transient failures in sequence that trip a region CLOSED -> OPEN.
    breaker_threshold: int = 8
    #: How long (virtual ms) an OPEN breaker sheds before one probe.
    breaker_cooldown_ms: float = 10_000.0

    def backoff_ms(self, attempt: int, u: float) -> float:
        """Wait before retry ``attempt`` (1-based) given uniform ``u``."""
        delay = min(self.cap_ms, self.base_ms * (2.0 ** (attempt - 1)))
        if self.jitter > 0:
            delay *= 1.0 - self.jitter / 2.0 + self.jitter * u
        return delay


class CircuitBreaker:
    """Per-endpoint failure gate: CLOSED -> OPEN -> HALF_OPEN -> CLOSED.

    HALF_OPEN *means* one probe is in flight; every way a probe can end
    leaves the state (:meth:`record_success`, :meth:`record_failure`,
    :meth:`release`).  Time is the virtual clock; ``on_transition(state)``
    fires on every state change (the deployment uses OPEN to shed the
    region's sessions to SUSPENDED).
    """

    def __init__(self, env, threshold: int, cooldown_ms: float,
                 on_transition: Optional[Callable[[str], None]] = None
                 ) -> None:
        self.env = env
        self.threshold = threshold
        self.cooldown_ms = cooldown_ms
        self.on_transition = on_transition
        self.state = BREAKER_CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.verdicts = 0  # successes + counted failures

    def _set_state(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        if self.on_transition is not None:
            self.on_transition(state)

    # ------------------------------------------------------------ protocol
    def allow(self) -> bool:
        """May a request go out now?  OPEN sheds until the cooldown has
        elapsed, then admits one probe (the caller finds the breaker
        HALF_OPEN); while that probe is in flight everything else sheds."""
        if self.state == BREAKER_CLOSED:
            return True
        if (self.state == BREAKER_HALF_OPEN
                or self.env.now - self.opened_at < self.cooldown_ms):
            return False
        self._set_state(BREAKER_HALF_OPEN)
        return True

    def record_success(self) -> None:
        """The store answered: the endpoint is healthy."""
        self.verdicts += 1
        self.failures = 0
        self._set_state(BREAKER_CLOSED)

    def record_failure(self, began: Optional[int] = None) -> None:
        """A transient error of an attempt begun at verdict ``began``
        (default: now).  It counts only if no verdict landed meanwhile, so
        failures that overlap count once; a counted failure re-opens a
        failed probe's breaker, the ``threshold``-th trips a closed one."""
        if began is not None and began != self.verdicts:
            return
        self.verdicts += 1
        self.failures += 1
        if (self.state == BREAKER_HALF_OPEN
                or (self.state == BREAKER_CLOSED
                    and self.failures >= self.threshold)):
            self.opened_at = self.env.now
            self._set_state(BREAKER_OPEN)

    def release(self) -> None:
        """The probe was abandoned without a verdict: back to OPEN with the
        cooldown already served, so the next request probes instead."""
        if self.state == BREAKER_HALF_OPEN:
            self._set_state(BREAKER_OPEN)


class RetryingStore:
    """A store behind the retry loop: the one storage boundary.

    ``ops`` (:data:`KV_OPS` / :data:`USER_OPS`) names the methods of
    ``inner`` that are storage round trips; each is built once as a
    retried generator method of the proxy, and every other attribute
    passes through to ``inner``.  A store that serves several ``regions``
    takes the region per call (``op(ctx, region, ...)``) and gets one
    circuit breaker per region, since regions fail independently; a store
    that *is* one regional endpoint gets one, keyed by its ``region``.
    """

    def __init__(self, inner, label: str, ops: Mapping[str, bool], env,
                 rng_factory, policy: RetryPolicy, metrics,
                 on_breaker_transition=None) -> None:
        self.inner = inner
        self.label = label
        self.env = env
        self.policy = policy
        self.breakers: Dict[str, CircuitBreaker] = {}
        self._rng_factory = rng_factory
        self._rng = None  # created on first actual retry
        self._on_breaker_transition = on_breaker_transition
        self._tokens = itertools.count(1)
        m = metrics
        self._retries = m.counter(
            "fk_storage_retries_total",
            "Transient storage errors absorbed by the retry layer",
            ("store", "op", "error"))
        self._exhausted = m.counter(
            "fk_storage_retry_exhausted_total",
            "Storage ops that failed every retry attempt",
            ("store", "op"))
        self._shed = m.counter(
            "fk_storage_breaker_shed_total",
            "Storage ops shed by an open circuit breaker",
            ("store", "op"))
        self._backoff = m.histogram(
            "fk_storage_retry_backoff_ms",
            "Backoff waits between storage retry attempts",
            ("store",), buckets=_BACKOFF_BUCKETS)
        self._breaker_state = m.gauge(
            "fk_storage_breaker_state",
            "Circuit breaker state (0=closed, 1=half-open, 2=open)",
            ("store", "region"))
        self._breaker_transitions = m.counter(
            "fk_storage_breaker_transitions_total",
            "Circuit breaker state changes",
            ("store", "region", "to"))
        self._breaker_probes = m.counter(
            "fk_storage_breaker_probes_total",
            "HALF_OPEN probe requests admitted by a healing breaker",
            ("store", "region"))
        own_region = None if hasattr(inner, "regions") else inner.region
        for op, tokened in ops.items():
            setattr(self, op, self._retried(op, tokened, own_region))

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    # ------------------------------------------------------------ plumbing
    def _retried(self, op: str, tokened: bool, own_region: Optional[str]):
        call = getattr(self.inner, op)
        if own_region is not None:
            def method(*args, **kwargs):
                return self._run(op, own_region, call, tokened, args, kwargs)
        else:
            def method(ctx, region, *args, **kwargs):
                return self._run(op, region, call, tokened,
                                 (ctx, region) + args, kwargs)
        return method

    def breaker(self, region: str) -> CircuitBreaker:
        breaker = self.breakers.get(region)
        if breaker is None:
            def on_transition(state: str) -> None:
                self._breaker_state.labels(
                    store=self.label, region=region).set(_STATE_GAUGE[state])
                self._breaker_transitions.labels(
                    store=self.label, region=region, to=state).inc()
                if self._on_breaker_transition is not None:
                    self._on_breaker_transition(self.label, region, state)

            breaker = self.breakers[region] = CircuitBreaker(
                self.env, self.policy.breaker_threshold,
                self.policy.breaker_cooldown_ms, on_transition)
        return breaker

    def _jitter_u(self) -> float:
        if self.policy.jitter <= 0:
            return 0.5  # not used by backoff_ms when jitter is 0
        if self._rng is None:
            self._rng = self._rng_factory()
        return self._rng.random()

    # ------------------------------------------------------------ the loop
    def _run(self, op: str, region: str, call, tokened: bool, args, kwargs
             ) -> Generator[Any, Any, Any]:
        """Run ``call(*args, **kwargs)`` with retry/backoff.

        A fresh attempt generator is created per try; the same token rides
        every attempt of one logical mutation, which is what makes the
        replay idempotent.  Minted only if ``inner.faults`` is armed as the
        first attempt draws its fault: an op begun unarmed is never retried.
        Nothing replays a token after its loop, so the loop retires it.
        """
        breaker = self.breaker(region)
        token = None
        if tokened and self.inner.faults is not None:
            token = f"{self.label}-t{next(self._tokens)}"
            kwargs = dict(kwargs, token=token)
        attempt = 0
        try:
            while True:
                if not breaker.allow():
                    self._shed.labels(store=self.label, op=op).inc()
                    raise StorageUnavailable(
                        f"{self.label}@{region}: circuit open, shedding {op}")
                probing = breaker.state == BREAKER_HALF_OPEN
                if probing:
                    self._breaker_probes.labels(
                        store=self.label, region=region).inc()
                attempt += 1
                began = breaker.verdicts
                try:
                    result = yield from call(*args, **kwargs)
                except TRANSIENT_ERRORS as exc:
                    breaker.record_failure(began)
                    self._retries.labels(store=self.label, op=op,
                                         error=type(exc).__name__).inc()
                    if attempt >= self.policy.max_attempts:
                        self._exhausted.labels(store=self.label, op=op).inc()
                        raise StorageUnavailable(
                            f"{self.label}@{region}: {op} failed after "
                            f"{attempt} attempts: {exc}", cause=exc) from exc
                    delay = self.policy.backoff_ms(attempt, self._jitter_u())
                    self._backoff.labels(store=self.label).observe(delay)
                    yield self.env.timeout(delay)
                    continue
                except CloudError:
                    breaker.record_success()  # an answer, whatever it says
                    raise
                except BaseException:
                    if probing:
                        breaker.release()  # abandoned: no verdict either way
                    raise
                breaker.record_success()
                return result
        finally:
            if token is not None:
                self.inner.retire_token(token)
