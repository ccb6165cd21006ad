"""Seeded transient-fault injection for the simulated storage services.

Real cloud storage fails transiently — DynamoDB throttles, S3 times out,
connections reset mid-request — and the paper's serverless design leans on
the client SDKs retrying through those failures.  The simulation's stores
were perfect until now, so the retry layer above them had nothing to prove
itself against.  :class:`FaultInjector` closes that gap: each storage
operation draws once from a dedicated, named RNG stream and may be handed
one of four fault classes, which the storage endpoint
(:class:`~repro.cloud.endpoint.StorageEndpoint`) fires:

* ``throttle`` — the request is rejected up front (:class:`ThrottlingError`);
  no latency, no billing, no mutation.
* ``timeout`` — the request hangs for ``FAULT_TIMEOUT_MS`` of virtual time
  and dies (:class:`StorageTimeout`); the mutation did **not** apply.
* ``conn_reset`` — the connection drops before the request is sent
  (:class:`ConnectionReset`); the mutation did **not** apply.
* ``partial_write`` — mutators only: the mutation **applies server-side**
  and the connection dies before the response.  The caller sees the same
  :class:`ConnectionReset` as the pre-send drop — the ambiguous failure;
  a retried key-value mutation replays the result its token recorded.

Determinism: the injector's RNG is a named stream of the simulation's
:class:`~repro.sim.rng.RngRegistry` (streams are independently seeded by
name), so an armed run replays exactly from the sim seed and a *disarmed*
store draws nothing — the stream is never even created, which is what
keeps the default deployment's latency/cost fingerprint bit-for-bit
intact.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Optional, Tuple

__all__ = ["FaultInjector", "FAULT_KINDS", "FAULT_TIMEOUT_MS"]

#: Fault classes, in their cumulative-weight order.
FAULT_KINDS: Tuple[str, ...] = ("throttle", "timeout", "conn_reset",
                                "partial_write")

#: Default mix: mostly cheap rejections, a tail of ambiguous failures —
#: roughly the shape of real provider error budgets.
DEFAULT_WEIGHTS: Dict[str, float] = {
    "throttle": 0.4,
    "timeout": 0.25,
    "conn_reset": 0.25,
    "partial_write": 0.1,
}

#: The mix as a cumulative table, built once: (upper bound, kind) in
#: ``FAULT_KINDS`` order.
_CUMULATIVE: Tuple[Tuple[float, str], ...] = tuple(zip(
    accumulate(DEFAULT_WEIGHTS[kind] / sum(DEFAULT_WEIGHTS.values())
               for kind in FAULT_KINDS), FAULT_KINDS))

#: Virtual time an injected-timeout request hangs before dying (ms).
FAULT_TIMEOUT_MS = 250.0


class FaultInjector:
    """One store's fault schedule: per-op draws from a dedicated stream.

    ``rate`` is the per-operation fault probability; ``DEFAULT_WEIGHTS``
    splits it across the fault classes.  Read operations cannot
    partial-write, so a read drawing ``partial_write`` degrades to
    ``conn_reset`` (the pre-send kind) instead of silently lowering the
    read fault rate.
    """

    def __init__(self, rng, rate: float) -> None:
        self.rng = rng
        self.arm(rate)
        #: fault kind -> times injected (exposed as callback metrics).
        self.injected: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    def arm(self, rate: float) -> None:
        """Set the rate; the stream and the counts carry on."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        self.rate = rate

    # ------------------------------------------------------------ schedule
    def draw(self, mutating: bool) -> Optional[str]:
        """One schedule decision: None (no fault) or a fault kind.

        Exactly one RNG draw on the no-fault path keeps armed runs
        replayable: the schedule depends only on the op *sequence*, not on
        which faults earlier ops drew.
        """
        roll = self.rng.random()
        if roll >= self.rate:
            return None
        scaled = roll / self.rate  # reuse the draw to pick the kind
        kind = _CUMULATIVE[-1][1]
        for bound, candidate in _CUMULATIVE:
            if scaled <= bound:
                kind = candidate
                break
        if kind == "partial_write" and not mutating:
            kind = "conn_reset"
        self.injected[kind] += 1
        return kind
