"""Latency models for simulated cloud services.

Every service operation samples a latency (milliseconds of virtual time)
from a model in this module.  Models are calibrated against the percentile
tables the paper publishes (Tables 3, 6a, 7a, 7c; Figures 4b, 8, 9), see
:mod:`repro.cloud.calibration` for the concrete numbers.

The workhorse is :class:`SizeAware`: a lognormal base latency (fitted from
p50/p99) plus a bandwidth term linear in the payload size, with a small
probability of a heavy-tail outlier — the structure visible in all of the
paper's latency tables (tight p50..p95 band, occasional 10x max).

A model owns no stream: each store draws from the one stream its cloud
gives it (``Cloud._endpoint``), shared by every caller of the store, so one
request's round trips shift the draws of unrelated concurrent ones — an
A/B of one request's latency has to let a run settle first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import cos, exp, log, sin, sqrt, tau

from ..sim.rng import lognormal_from_percentiles

__all__ = ["LatencyModel", "Fixed", "SizeAware"]


class LatencyModel:
    """Base class: ``sample(rng, size_kb)`` returns milliseconds."""

    def sample(self, rng: random.Random, size_kb: float = 0.0) -> float:
        raise NotImplementedError

    def median(self, size_kb: float = 0.0) -> float:
        """Deterministic central value, used by analytic cost estimates."""
        raise NotImplementedError


@dataclass(frozen=True)
class Fixed(LatencyModel):
    """Constant latency (useful in tests and for idealized services)."""

    value_ms: float = 0.0

    def sample(self, rng: random.Random, size_kb: float = 0.0) -> float:
        return self.value_ms

    def median(self, size_kb: float = 0.0) -> float:
        return self.value_ms


@dataclass(frozen=True)
class SizeAware(LatencyModel):
    """Lognormal base + linear bandwidth term + rare heavy-tail outliers.

    Parameters
    ----------
    p50_ms, p99_ms:
        Base (zero-size) latency percentiles; the lognormal is fitted to
        them.
    per_kb_ms:
        Added per kB of payload (1/bandwidth).  The bandwidth term gets the
        same relative noise as the base draw, matching the widening tails
        the paper reports for larger payloads.
    min_ms:
        Floor clamp (the paper's "Min" columns).
    outlier_p, outlier_scale:
        With probability ``outlier_p`` the draw is multiplied by
        ``outlier_scale`` — reproduces the "Max" rows that sit an order of
        magnitude above p99 (e.g. 60 ms max on a 4.3 ms median DynamoDB
        write).
    """

    p50_ms: float
    p99_ms: float
    per_kb_ms: float = 0.0
    min_ms: float = 0.0
    outlier_p: float = 0.002
    outlier_scale: float = 10.0

    _sigma: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:  # sigma of the fitted lognormal, once per model
        object.__setattr__(self, "_sigma", lognormal_from_percentiles(self.p50_ms, self.p99_ms)[1])

    def sample(self, rng: random.Random, size_kb: float = 0.0) -> float:
        noise, sigma = 1.0, self._sigma
        if sigma > 0:
            # ``rng.gauss(0.0, sigma)`` without its frame: the same two draws
            # and the same ``gauss_next`` cache it shares with other callers.
            z = rng.gauss_next
            rng.gauss_next = None
            if z is None:
                x2pi = rng.random() * tau
                g2rad = sqrt(-2.0 * log(1.0 - rng.random()))
                z = cos(x2pi) * g2rad
                rng.gauss_next = sin(x2pi) * g2rad
            noise = exp(z * sigma)
        base = self.p50_ms * noise
        # The bandwidth term shares the multiplicative noise: large payloads
        # widen the absolute spread, as in Table 6a (64 kB rows).
        value = base + self.per_kb_ms * size_kb * noise
        if self.outlier_p > 0 and rng.random() < self.outlier_p:
            value *= self.outlier_scale
        return max(self.min_ms, value)

    def median(self, size_kb: float = 0.0) -> float:
        return max(self.min_ms, self.p50_ms + self.per_kb_ms * size_kb)
