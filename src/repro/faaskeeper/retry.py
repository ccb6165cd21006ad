"""Self-healing storage access: retry, backoff, and circuit breaking.

A single transient storage error — a throttle, a timeout, a dropped
connection — used to be session-fatal anywhere in the pipeline.  This
module wraps **every** system-store and user-store round trip in a
declarative retry policy (the shape of Kazoo's ``KazooRetry``), adapted to
the simulation's constraints:

* **Sim-clock backoff** — waits are ``env.timeout`` events on the virtual
  clock (FK001-clean: no wall-clock sleeps), exponential with a jittered
  factor drawn from a dedicated named RNG stream.  The stream is only
  created — and only drawn from — when a retry actually happens, so a
  fault-free run's RNG consumption, latency and cost stay bit-for-bit
  identical to the unwrapped store.
* **Idempotence-aware replay** — every key-value mutator is stamped with a
  deterministic request token (DynamoDB ``ClientRequestToken``).  If the
  first attempt died *after* applying (the ambiguous partial-write
  failure), the replay returns the recorded result instead of re-applying,
  so conditional writes re-verify rather than blind-retry and the
  exactly-once audits stay green.  User-store ops are whole-image writes
  (idempotent by construction), so the wrapper re-runs them bodily.
* **Per-region circuit breaker** — ``storage_breaker_threshold``
  consecutive transient failures trip a store/region to OPEN: further
  requests are shed immediately with :class:`StorageUnavailable` (and the
  deployment marks the region's sessions SUSPENDED) instead of piling
  retries onto a dead endpoint.  After ``storage_breaker_cooldown_ms`` of
  virtual time one HALF_OPEN probe is let through; success closes the
  breaker, failure re-opens it.

Retryable errors are exactly :data:`repro.cloud.errors.TRANSIENT_ERRORS`;
:class:`ConditionFailed` is a decision, not an outage, and always
surfaces.  Observability rides the deployment's metrics registry:
``fk_storage_retries_total``, ``fk_storage_retry_exhausted_total``,
``fk_storage_breaker_state`` / ``_transitions_total`` and the
``fk_storage_retry_backoff_ms`` histogram.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Generator, List, Optional)

from ..cloud.errors import TRANSIENT_ERRORS, StorageUnavailable

__all__ = ["RetryPolicy", "CircuitBreaker", "RetryingKeyValueStore",
           "RetryingUserStore", "BREAKER_CLOSED", "BREAKER_HALF_OPEN",
           "BREAKER_OPEN"]

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
    """Declarative retry policy for one store wrapper."""

    enabled: bool = True
    max_attempts: int = 5
    base_ms: float = 10.0
    cap_ms: float = 2_000.0
    jitter: float = 0.5

    def backoff_ms(self, attempt: int, u: float) -> float:
        """Wait before retry ``attempt`` (1-based) given uniform ``u``."""
        delay = min(self.cap_ms, self.base_ms * (2.0 ** (attempt - 1)))
        if self.jitter > 0:
            delay *= 1.0 - self.jitter / 2.0 + self.jitter * u
        return delay


class CircuitBreaker:
    """Per-endpoint failure gate: CLOSED -> OPEN -> HALF_OPEN -> CLOSED.

    Time is the virtual clock; ``on_transition(state)`` fires on every
    state change (the deployment uses OPEN to shed the region's sessions
    to SUSPENDED).
    """

    def __init__(self, env, threshold: int, cooldown_ms: float,
                 on_transition: Optional[Callable[[str], None]] = None,
                 probe_interval_ms: float = 0.0) -> None:
        self.env = env
        self.threshold = threshold
        self.cooldown_ms = cooldown_ms
        self.on_transition = on_transition
        #: Minimum spacing between HALF_OPEN probes.  0 = a probe whenever
        #: the cooldown allows (the legacy behaviour): under a sustained
        #: brown-out that re-probes — and re-fails, and re-opens — once per
        #: cooldown *per caller*; a positive interval caps the aggregate
        #: probe rate against the sick endpoint.
        self.probe_interval_ms = probe_interval_ms
        self.state = BREAKER_CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self._probing = False
        #: Virtual instant of the last admitted probe, and the total count
        #: (mirrored into ``fk_storage_breaker_probes_total`` by the
        #: retrier).
        self.last_probe_at: Optional[float] = None
        self.probes = 0

    def _set_state(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        if self.on_transition is not None:
            self.on_transition(state)

    def _probe_due(self) -> bool:
        if self.probe_interval_ms <= 0 or self.last_probe_at is None:
            return True
        return self.env.now - self.last_probe_at >= self.probe_interval_ms

    def _admit_probe(self) -> None:
        self._probing = True
        self.last_probe_at = self.env.now
        self.probes += 1

    # ------------------------------------------------------------ protocol
    def allow(self) -> bool:
        """May a request go out now?  OPEN sheds until the cooldown has
        elapsed, then admits HALF_OPEN probes one at a time, spaced at
        least ``probe_interval_ms`` apart."""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if self.env.now - self.opened_at < self.cooldown_ms:
                return False
            if not self._probe_due():
                return False
            self._set_state(BREAKER_HALF_OPEN)
            self._admit_probe()
            return True
        # HALF_OPEN: one probe in flight at a time, rate-capped.
        if self._probing or not self._probe_due():
            return False
        self._admit_probe()
        return True

    def record_success(self) -> None:
        self.failures = 0
        self._probing = False
        if self.state != BREAKER_CLOSED:
            self._set_state(BREAKER_CLOSED)

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == BREAKER_HALF_OPEN:
            self._probing = False
            self.opened_at = self.env.now
            self._set_state(BREAKER_OPEN)
        elif self.state == BREAKER_CLOSED and self.failures >= self.threshold:
            self.opened_at = self.env.now
            self._set_state(BREAKER_OPEN)


class _Retrier:
    """The shared retry engine behind both store wrappers."""

    def __init__(self, label: str, env, rng_factory, policy: RetryPolicy,
                 breaker_threshold: int, breaker_cooldown_ms: float,
                 metrics, on_breaker_transition=None,
                 breaker_probe_interval_ms: float = 0.0) -> None:
        self.label = label
        self.env = env
        self._rng_factory = rng_factory
        self._rng = None  # created on first actual retry
        self.policy = policy
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown_ms = breaker_cooldown_ms
        self._breaker_probe_interval_ms = breaker_probe_interval_ms
        self._on_breaker_transition = on_breaker_transition
        self.breakers: Dict[str, CircuitBreaker] = {}
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

    # ------------------------------------------------------------ plumbing
    def breaker(self, region: str) -> CircuitBreaker:
        breaker = self.breakers.get(region)
        if breaker is None:
            def on_transition(state: str, _region: str = region) -> None:
                self._breaker_state.labels(
                    store=self.label, region=_region).set(_STATE_GAUGE[state])
                self._breaker_transitions.labels(
                    store=self.label, region=_region, to=state).inc()
                if self._on_breaker_transition is not None:
                    self._on_breaker_transition(self.label, _region, state)

            breaker = CircuitBreaker(
                self.env, self._breaker_threshold,
                self._breaker_cooldown_ms, on_transition,
                probe_interval_ms=self._breaker_probe_interval_ms)
            self.breakers[region] = breaker
        return breaker

    def next_token(self) -> str:
        return f"{self.label}-t{next(self._tokens)}"

    def _jitter_u(self) -> float:
        if self.policy.jitter <= 0:
            return 0.5  # not used by backoff_ms when jitter is 0
        if self._rng is None:
            self._rng = self._rng_factory()
        return self._rng.random()

    # ------------------------------------------------------------ the loop
    def run(self, op: str, region: str, make_attempt, mutating: bool
            ) -> Generator[Any, Any, Any]:
        """Run ``make_attempt(token) -> generator`` with retry/backoff.

        A fresh attempt generator is created per try; the same token rides
        every attempt of one logical mutation, which is what makes the
        replay idempotent.
        """
        if not self.policy.enabled:
            return (yield from make_attempt(None))
        breaker = self.breaker(region)
        token = self.next_token() if mutating else None
        attempt = 0
        while True:
            if not breaker.allow():
                self._shed.labels(store=self.label, op=op).inc()
                raise StorageUnavailable(
                    f"{self.label}@{region}: circuit open, shedding {op}")
            if breaker.state == BREAKER_HALF_OPEN:
                self._breaker_probes.labels(
                    store=self.label, region=region).inc()
            attempt += 1
            try:
                result = yield from make_attempt(token)
            except TRANSIENT_ERRORS as exc:
                breaker.record_failure()
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
            breaker.record_success()
            return result


class RetryingKeyValueStore:
    """The system store behind the retry engine.

    Every read and mutator of :class:`~repro.cloud.kvstore.KeyValueStore`
    is wrapped; mutators additionally carry an idempotence token so an
    ambiguous failure replays instead of re-applying.  Everything else
    (``table``/``tables``/``create_table``/stream wiring/raw test access)
    passes through to the inner store untouched.
    """

    def __init__(self, inner, env, rng_factory, policy: RetryPolicy,
                 breaker_threshold: int, breaker_cooldown_ms: float,
                 metrics, on_breaker_transition=None,
                 label: str = "system",
                 breaker_probe_interval_ms: float = 0.0) -> None:
        self._inner = inner
        self._retrier = _Retrier(label, env, rng_factory, policy,
                                 breaker_threshold, breaker_cooldown_ms,
                                 metrics, on_breaker_transition,
                                 breaker_probe_interval_ms)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    @property
    def retrier(self) -> _Retrier:
        return self._retrier

    # ------------------------------------------------------------ reads
    def get_item(self, ctx, table_name, key, **kwargs):
        return self._retrier.run(
            "get_item", self._inner.region,
            lambda _token: self._inner.get_item(ctx, table_name, key, **kwargs),
            mutating=False)

    def scan(self, ctx, table_name, **kwargs):
        return self._retrier.run(
            "scan", self._inner.region,
            lambda _token: self._inner.scan(ctx, table_name, **kwargs),
            mutating=False)

    # ------------------------------------------------------------ mutators
    def put_item(self, ctx, table_name, key, attributes, **kwargs):
        return self._retrier.run(
            "put_item", self._inner.region,
            lambda token: self._inner.put_item(
                ctx, table_name, key, attributes, token=token, **kwargs),
            mutating=True)

    def update_item(self, ctx, table_name, key, updates, **kwargs):
        return self._retrier.run(
            "update_item", self._inner.region,
            lambda token: self._inner.update_item(
                ctx, table_name, key, updates, token=token, **kwargs),
            mutating=True)

    def delete_item(self, ctx, table_name, key, **kwargs):
        return self._retrier.run(
            "delete_item", self._inner.region,
            lambda token: self._inner.delete_item(
                ctx, table_name, key, token=token, **kwargs),
            mutating=True)

    def batch_put(self, ctx, table_name, items):
        return self._retrier.run(
            "batch_put", self._inner.region,
            lambda token: self._inner.batch_put(
                ctx, table_name, items, token=token),
            mutating=True)

    def transact_update(self, ctx, ops):
        return self._retrier.run(
            "transact_update", self._inner.region,
            lambda token: self._inner.transact_update(ctx, ops, token=token),
            mutating=True)


class RetryingUserStore:
    """The user store behind the retry engine.

    Backend operations are whole-image reads/writes — idempotent by
    construction — so a failed attempt re-runs bodily (no tokens needed:
    replaying ``write_node`` writes the same image).  Each *region* gets
    its own circuit breaker, since regions fail independently.
    Inspection hooks (``peek``/``wipe_region``/``fault_points``), the
    ``kind``/capability flags and sizing helpers pass through.
    """

    def __init__(self, inner, env, rng_factory, policy: RetryPolicy,
                 breaker_threshold: int, breaker_cooldown_ms: float,
                 metrics, on_breaker_transition=None,
                 label: str = "user",
                 breaker_probe_interval_ms: float = 0.0) -> None:
        self._inner = inner
        self._retrier = _Retrier(label, env, rng_factory, policy,
                                 breaker_threshold, breaker_cooldown_ms,
                                 metrics, on_breaker_transition,
                                 breaker_probe_interval_ms)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    @property
    def inner(self):
        return self._inner

    @property
    def retrier(self) -> _Retrier:
        return self._retrier

    @property
    def kind(self) -> str:
        return self._inner.kind

    # ------------------------------------------------------------ ops
    def write_node(self, ctx, region, path, image):
        return self._retrier.run(
            "write_node", region,
            lambda _token: self._inner.write_node(ctx, region, path, image),
            mutating=False)

    def read_node(self, ctx, region, path):
        return self._retrier.run(
            "read_node", region,
            lambda _token: self._inner.read_node(ctx, region, path),
            mutating=False)

    def delete_node(self, ctx, region, path):
        return self._retrier.run(
            "delete_node", region,
            lambda _token: self._inner.delete_node(ctx, region, path),
            mutating=False)

    def update_metadata(self, ctx, region, path, meta_image):
        return self._retrier.run(
            "update_metadata", region,
            lambda _token: self._inner.update_metadata(
                ctx, region, path, meta_image),
            mutating=False)
