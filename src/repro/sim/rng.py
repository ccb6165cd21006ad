"""Deterministic random-number streams.

Every stochastic element of the simulation (latency noise, payload
generation, failure injection) draws from a named stream derived from a
single root seed.  Independent streams keep experiments comparable: adding a
new noise source does not perturb the draws of existing ones, which is the
standard variance-reduction discipline for simulation studies.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, Sequence

__all__ = ["RngRegistry", "lognormal_from_percentiles"]

# Standard-normal quantiles used by the percentile-fitting helper.
_Z = {50: 0.0, 90: 1.2815515655446004, 95: 1.6448536269514722, 99: 2.3263478740408408}


class RngRegistry:
    """Factory of named, independently-seeded :class:`random.Random` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream for ``name``."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def __contains__(self, name: str) -> bool:
        """True once ``name`` has been resolved: holders resolve their stream
        at their first draw, so a name that never drew owns no state."""
        return name in self._streams

    def discard(self, name: str) -> None:
        """Forget a stream whose only user is gone (a deleted queue)."""
        self._streams.pop(name, None)


def lognormal_from_percentiles(p50: float, p99: float) -> tuple[float, float]:
    """Fit ``(mu, sigma)`` of a lognormal from its median and 99th percentile.

    Used to calibrate latency models to the percentile tables published in
    the paper (Tables 3, 6a, 7a, 7c).  ``p50`` and ``p99`` must be positive
    with ``p99 >= p50``.
    """
    if p50 <= 0 or p99 <= 0:
        raise ValueError("percentiles must be positive")
    if p99 < p50:
        raise ValueError("p99 must be >= p50")
    mu = math.log(p50)
    sigma = (math.log(p99) - mu) / _Z[99] if p99 > p50 else 0.0
    return mu, sigma


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (same convention as numpy's default).

    Kept dependency-free so the core library does not require numpy.
    """
    if not samples:
        raise ValueError("no samples")
    xs = sorted(samples)
    if len(xs) == 1:
        return xs[0]
    rank = (q / 100.0) * (len(xs) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return xs[lo]
    frac = rank - lo
    return xs[lo] * (1 - frac) + xs[hi] * frac
