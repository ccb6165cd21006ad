"""Seeded transient-fault injection for the simulated storage services.

Real cloud storage fails transiently — DynamoDB throttles, S3 times out,
connections reset mid-request — and the paper's serverless design leans on
the client SDKs retrying through those failures.  The simulation's stores
were perfect until now, so the retry layer above them had nothing to prove
itself against.  :class:`FaultInjector` closes that gap: each storage
operation draws once from a dedicated, named RNG stream and may be handed
one of four fault classes:

* ``throttle`` — the request is rejected up front (:class:`ThrottlingError`);
  no latency, no billing, no mutation.
* ``timeout`` — the request hangs for ``FAULT_TIMEOUT_MS`` of virtual time
  and dies (:class:`StorageTimeout`); the mutation did **not** apply.
* ``conn_reset`` — the connection drops before the request is sent
  (:class:`ConnectionReset`); the mutation did **not** apply.
* ``partial_write`` — mutators only: the mutation **applies server-side**
  and the connection dies before the response.  The caller sees the same
  :class:`ConnectionReset` as the pre-send drop — the ambiguous failure
  idempotence tokens exist for.

Determinism: the injector's RNG is a named stream of the simulation's
:class:`~repro.sim.rng.RngRegistry` (streams are independently seeded by
name), so an armed run replays exactly from the sim seed and a *disarmed*
store draws nothing — the stream is never even created, which is what
keeps the default deployment's latency/cost fingerprint bit-for-bit
intact.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Sequence, Tuple

from .errors import ConnectionReset, StorageTimeout, ThrottlingError

__all__ = ["FaultInjector", "FAULT_KINDS"]

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

#: Virtual time an injected-timeout request hangs before dying (ms).
FAULT_TIMEOUT_MS = 250.0


class FaultInjector:
    """One store's fault schedule: per-op draws from a dedicated stream.

    ``rate`` is the per-operation fault probability; ``weights`` splits it
    across the fault classes.  Read operations cannot partial-write, so a
    read drawing ``partial_write`` degrades to ``conn_reset`` (the
    pre-send kind) instead of silently lowering the read fault rate.
    """

    def __init__(self, env, rng, rate: float,
                 weights: Optional[Dict[str, float]] = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        self.env = env
        self.rng = rng
        self.rate = rate
        merged = dict(DEFAULT_WEIGHTS)
        if weights:
            unknown = set(weights) - set(FAULT_KINDS)
            if unknown:
                raise ValueError(f"unknown fault kinds {sorted(unknown)}")
            merged.update(weights)
        total = sum(merged.values())
        if total <= 0:
            raise ValueError("fault weights must sum to > 0")
        self._cumulative = []
        running = 0.0
        for kind in FAULT_KINDS:
            running += merged[kind] / total
            self._cumulative.append((running, kind))
        #: fault kind -> times injected (exposed as callback metrics).
        self.injected: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    # ------------------------------------------------------------ schedule
    def draw(self, op: str, mutating: bool) -> Optional[str]:
        """One schedule decision: None (no fault) or a fault kind.

        Exactly one RNG draw on the no-fault path keeps armed runs
        replayable: the schedule depends only on the op *sequence*, not on
        which faults earlier ops drew.
        """
        roll = self.rng.random()
        if roll >= self.rate:
            return None
        scaled = roll / self.rate  # reuse the draw to pick the kind
        kind = self._cumulative[-1][1]
        for bound, candidate in self._cumulative:
            if scaled <= bound:
                kind = candidate
                break
        if kind == "partial_write" and not mutating:
            kind = "conn_reset"
        self.injected[kind] += 1
        return kind

    def fire_before(self, kind: str, op: str) -> Generator[Any, Any, None]:
        """Raise the pre-mutation fault classes (generator: a timeout
        burns virtual time before dying, like a hung request)."""
        if kind == "throttle":
            raise ThrottlingError(f"{op}: injected throttle")
        if kind == "timeout":
            yield self.env.timeout(FAULT_TIMEOUT_MS)
            raise StorageTimeout(f"{op}: injected timeout "
                                 f"after {FAULT_TIMEOUT_MS} ms")
        if kind == "conn_reset":
            raise ConnectionReset(f"{op}: injected connection reset")
        return None  # partial_write fires after the mutation

    def fire_after(self, kind: Optional[str], op: str) -> None:
        """Raise the post-mutation fault (the ambiguous partial write)."""
        if kind == "partial_write":
            raise ConnectionReset(
                f"{op}: injected connection reset after apply")

    def total_injected(self) -> int:
        return sum(self.injected.values())


def draw_fault(injector: Optional[FaultInjector], op: str,
               mutating: bool) -> Optional[str]:
    """Schedule helper for stores: one draw iff an injector is armed."""
    if injector is None or injector.rate <= 0.0:
        return None
    return injector.draw(op, mutating)
