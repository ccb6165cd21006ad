"""Latency models for simulated cloud services.

Every service operation samples a latency (milliseconds of virtual time)
from a model in this module.  Models are calibrated against the percentile
tables the paper publishes (Tables 3, 6a, 7a, 7c; Figures 4b, 8, 9), see
:mod:`repro.cloud.calibration` for the concrete numbers.

The workhorse is :class:`SizeAware`: a lognormal base latency (fitted from
p50/p99) plus a bandwidth term linear in the payload size, with a small
probability of a heavy-tail outlier — the structure visible in all of the
paper's latency tables (tight p50..p95 band, occasional 10x max).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from ..sim.rng import lognormal_from_percentiles

__all__ = ["LatencyModel", "Fixed", "SizeAware", "scaled"]


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

    @cached_property
    def _params(self) -> tuple[float, float]:
        """``(mu, sigma)`` of the fitted lognormal, fitted once per model."""
        return lognormal_from_percentiles(self.p50_ms, self.p99_ms)

    def sample(self, rng: random.Random, size_kb: float = 0.0) -> float:
        _mu, sigma = self._params
        noise = math.exp(rng.gauss(0.0, sigma)) if sigma > 0 else 1.0
        base = self.p50_ms * noise
        # The bandwidth term shares the multiplicative noise: large payloads
        # widen the absolute spread, as in Table 6a (64 kB rows).
        value = base + self.per_kb_ms * size_kb * noise
        if self.outlier_p > 0 and rng.random() < self.outlier_p:
            value *= self.outlier_scale
        return max(self.min_ms, value)

    def median(self, size_kb: float = 0.0) -> float:
        return max(self.min_ms, self.p50_ms + self.per_kb_ms * size_kb)


@dataclass(frozen=True)
class Scaled(LatencyModel):
    """Wrap a model with a multiplicative factor (cross-region, memory...)."""

    inner: LatencyModel
    factor: float = 1.0
    extra_ms: float = 0.0

    def sample(self, rng: random.Random, size_kb: float = 0.0) -> float:
        return self.inner.sample(rng, size_kb) * self.factor + self.extra_ms

    def median(self, size_kb: float = 0.0) -> float:
        return self.inner.median(size_kb) * self.factor + self.extra_ms


def scaled(model: LatencyModel, factor: float = 1.0, extra_ms: float = 0.0) -> LatencyModel:
    """Convenience constructor for :class:`Scaled`."""
    if factor == 1.0 and extra_ms == 0.0:
        return model
    return Scaled(model, factor, extra_ms)
