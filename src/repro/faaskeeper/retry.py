"""Self-healing storage access: retry with backoff.

A single transient storage error — a throttle, a timeout, a dropped
connection — used to be session-fatal anywhere in the pipeline.  Every
deployment therefore reaches its system store and its user store through
one :class:`RetryingStore` proxy, declared by an op table and holding the
one retry loop (the shape of Kazoo's ``KazooRetry``), adapted to the
simulation's constraints:

* **Sim-clock backoff** — waits are bare delays on the virtual clock
  (FK001-clean: no wall-clock sleeps), exponential with a jittered
  factor drawn from a dedicated named RNG stream.  The stream is only
  created — and only drawn from — when a retry actually happens, so a
  fault-free run's RNG consumption, latency and cost are those of the raw
  store, bit for bit.
* **Idempotence-aware replay** — the op table says which operations carry
  a request token (DynamoDB ``ClientRequestToken``): every key-value
  mutator, while its store has a fault injector armed (only an injector
  raises a transient error; unarmed, nothing is retried).  The token is a
  fresh list that rides every attempt of one request, and the attempt
  that applies records its result in it.  If that attempt died *after*
  applying (the ambiguous partial-write failure), the retry finds the
  token filled and returns the recorded result instead of re-applying, so
  conditional writes re-verify rather than blind-retry and the
  exactly-once audits stay green.  The retry state lives in the retrying
  call, as in ``KazooRetry``: the store keeps none.  User-store ops are
  whole-image writes (idempotent by construction) and re-run bodily.
* **Exhaustion** — after :data:`MAX_ATTEMPTS` transient failures the op
  raises :class:`StorageUnavailable` carrying the last error.  The
  invocation fails and its trigger redelivers it, so a sustained outage
  costs retries, not sessions, and the deployment heals when it ends.

Retryable errors are exactly :data:`repro.cloud.errors.TRANSIENT_ERRORS`;
:class:`ConditionFailed` is a decision, not an outage, and always
surfaces.  Observability rides the deployment's metrics registry:
``fk_storage_retries_total``, ``fk_storage_retry_exhausted_total`` and the
``fk_storage_retry_backoff_ms`` histogram.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Mapping

from ..cloud.context import boundary
from ..cloud.errors import TRANSIENT_ERRORS, StorageUnavailable

__all__ = ["RetryingStore", "KV_OPS", "USER_OPS", "MAX_ATTEMPTS",
           "backoff_ms"]

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

#: The retry policy (the cloud SDKs' defaults, not knobs): attempts per op,
#: the first backoff and its cap (virtual ms), and the jitter width.
MAX_ATTEMPTS = 5
BASE_MS = 10.0
CAP_MS = 2_000.0
JITTER = 0.5

#: Backoff histogram buckets (ms): finer than the latency default at the
#: low end, since base backoffs start at ~10 ms.
_BACKOFF_BUCKETS = (5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0,
                    1280.0, 2560.0, 5120.0)


def backoff_ms(attempt: int, u: float) -> float:
    """Wait before retry ``attempt`` (1-based) given uniform ``u``."""
    delay = min(CAP_MS, BASE_MS * (2.0 ** (attempt - 1)))
    return delay * (1.0 - JITTER / 2.0 + JITTER * u)


class RetryingStore:
    """A store behind the retry loop: the one storage boundary, and so
    where an armed invocation's storage crash windows are.

    ``ops`` (:data:`KV_OPS` / :data:`USER_OPS`) names the methods of
    ``inner`` that are storage round trips; each is built once as a
    retried generator method of the proxy, and every other attribute
    passes through to ``inner``.
    """

    def __init__(self, inner, label: str, ops: Mapping[str, bool], env,
                 rng_factory, metrics) -> None:
        self.inner = inner
        self.label = label
        self.env = env
        self._rng_factory = rng_factory
        self._rng = None  # created on first actual retry
        m = metrics
        self._retries = m.counter(
            "fk_storage_retries_total",
            "Transient storage errors absorbed by the retry layer",
            ("store", "op", "error"))
        self._exhausted = m.counter(
            "fk_storage_retry_exhausted_total",
            "Storage ops that failed every retry attempt",
            ("store", "op"))
        self._backoff = m.histogram(
            "fk_storage_retry_backoff_ms",
            "Backoff waits between storage retry attempts",
            ("store",), buckets=_BACKOFF_BUCKETS)
        for op, tokened in ops.items():
            setattr(self, op, self._retried(op, tokened))

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    # ------------------------------------------------------------ plumbing
    def _retried(self, op: str, tokened: bool):
        call = getattr(self.inner, op)

        def method(ctx, *args, **kwargs):
            return boundary(ctx, op, self._run(
                op, call, tokened, (ctx,) + args, kwargs))
        return method

    def _jitter_u(self) -> float:
        if self._rng is None:
            self._rng = self._rng_factory()
        return self._rng.random()

    # ------------------------------------------------------------ the loop
    def _run(self, op: str, call, tokened: bool, args, kwargs
             ) -> Generator[Any, Any, Any]:
        """Run ``call(*args, **kwargs)`` with retry/backoff.

        A fresh attempt generator is created per try; the same token rides
        every attempt of one logical mutation, which is what makes the
        replay idempotent.  Made only if ``inner.faults`` is armed as the
        first attempt draws its fault: an op begun unarmed is never retried.
        The token dies with the loop: nothing else can replay it.
        """
        if tokened and self.inner.faults is not None:
            kwargs = dict(kwargs, token=[])
        for attempt in itertools.count(1):
            try:
                return (yield from call(*args, **kwargs))
            except TRANSIENT_ERRORS as exc:
                self._retries.labels(store=self.label, op=op,
                                     error=type(exc).__name__).inc()
                if attempt >= MAX_ATTEMPTS:
                    self._exhausted.labels(store=self.label, op=op).inc()
                    raise StorageUnavailable(
                        f"{self.label}: {op} failed after {attempt} "
                        f"attempts: {exc}", cause=exc) from exc
                delay = backoff_ms(attempt, self._jitter_u())
                self._backoff.labels(store=self.label).observe(delay)
                yield delay
