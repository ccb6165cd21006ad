"""One storage endpoint: what every simulated store's round trip shares.

The key-value store, the object store, the in-memory cache and the user
store's ``mem`` backend are each a :class:`StorageEndpoint`.  Their round
trips differ in what they read, write and bill; the rest lives here once:
the fault prelude and postlude that fire the kinds of
:mod:`repro.cloud.faults` (unarmed, a round trip pays one ``faults is
None`` test, at its call site), the latency rule with its inter-region
penalty, the charge to the caller's payer label, and the frozen-handout
check: under ``FK_SANITIZE=1`` each stored image is snapshotted, and
checked against the snapshot when its key is read or replaced.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from ..sim.kernel import Environment
from . import sanitize
from .calibration import CloudProfile
from .context import OpContext
from .errors import ConnectionReset, StorageTimeout, ThrottlingError
from .expressions import clone
from .faults import FAULT_TIMEOUT_MS, FaultInjector
from .pricing import CostMeter

__all__ = ["StorageEndpoint"]


class StorageEndpoint:
    """A store reached by round trips: one cost label, one region."""

    #: Prefix of the endpoint's latency RNG stream, ``<stream>:<label>@<region>``.
    stream = ""

    def __init__(self, env: Environment, profile: CloudProfile,
                 meter: CostMeter, rng, region: str,
                 service_label: str) -> None:
        self.env = env
        self.profile = profile
        self.meter = meter
        self.rng = rng
        self.region = region
        self.service_label = service_label
        #: Armed by deployments running a fault schedule (None = no draws).
        self.faults: Optional[FaultInjector] = None
        #: ``FK_SANITIZE=1``, read once here: arms the storage assertions.
        self._sanitized = sanitize.enabled()
        #: Sanitized only: key -> a clone of the image stored under it.
        self._snapshots: Optional[Dict[tuple, Any]] = {} if self._sanitized else None

    # ------------------------------------------------------------ faults
    def _fault(self, op: str, mutating: bool, what: str
               ) -> Generator[Any, Any, Optional[str]]:
        """The fault prelude of an armed endpoint (callers test ``faults``
        first): one schedule draw.  A pre-send fault raises here; a partial
        write returns the request :meth:`_reply` fails once it applied."""
        faults = self.faults
        kind = faults.draw(mutating) if faults.rate > 0.0 else None
        if kind is None:
            return None
        request = f"{op} {what}"
        if kind == "throttle":
            raise ThrottlingError(f"{request}: injected throttle")
        if kind == "timeout":  # the request hangs, then dies
            yield FAULT_TIMEOUT_MS
            raise StorageTimeout(f"{request}: injected timeout after {FAULT_TIMEOUT_MS} ms")
        if kind == "conn_reset":
            raise ConnectionReset(f"{request}: injected connection reset")
        return request

    def _reply(self, partial_write: Optional[str]) -> None:
        """The fault postlude: a partial write loses its reply."""
        if partial_write is not None:
            raise ConnectionReset(f"{partial_write}: injected connection reset after apply")

    # ------------------------------------------------------------ latency, billing
    def _latency(self, ctx: OpContext, model, size_kb: float,
                 extra_ms: float = 0.0) -> float:
        value = (model.sample(self.rng, size_kb) + extra_ms) * ctx.io_mult
        if ctx.region is not None and ctx.region != self.region:
            value += self.profile.inter_region_extra_ms
            value += self.profile.inter_region_per_kb_ms * size_kb
        return value

    def _charge(self, ctx: OpContext, category: str, usd: float) -> None:
        self.meter.charge(ctx.payer or self.service_label, category, usd)

    # ------------------------------------------------------------ frozen images
    def _stored(self, key: tuple, image: Any) -> None:
        """Note ``image`` as the one now stored under ``key``."""
        if self._snapshots is not None:
            self._snapshots[key] = clone(image)

    def _handout(self, key: tuple, image: Any) -> Any:
        """``image``, the one stored under ``key``, after the sanitizer
        checked that no holder mutated it since it was stored."""
        if image is not None and self._snapshots is not None:
            sanitize.check_frozen(f"stored image of {key[0]}/{key[1]}",
                                  image, self._snapshots.get(key))
        return image
