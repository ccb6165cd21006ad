"""Deterministic discrete-event simulation kernel (SimPy-style)."""

from .kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    ReentrantRunError,
    SimulationError,
    Timeout,
    TimerTrain,
    gather,
)
from .resources import Resource, Store, TokenBucketLimiter
from .rng import RngRegistry, lognormal_from_percentiles, percentile

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "ReentrantRunError",
    "SimulationError",
    "Timeout",
    "TimerTrain",
    "gather",
    "Resource",
    "Store",
    "TokenBucketLimiter",
    "RngRegistry",
    "lognormal_from_percentiles",
    "percentile",
]
