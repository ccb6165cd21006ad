"""Coordination recipes — the wait-free primitives of Hunt et al. (ATC'10)
on the FaaSKeeper client.

Everything here is built strictly on the public client API (ephemeral +
sequence nodes, watches, ``multi()``, ``ensure_path``, ``client.busy_retry``
around every write), so a recipe is exactly the code an application would
ship — and every recipe operation exercises the full write pipeline,
client cache and distributor stages underneath.

===============  ==========================================================
Recipe           One-liner
===============  ==========================================================
`Lock`           ``with Lock(client, "/locks/app"): ...`` — FIFO, herd-free
`Semaphore`      ``Semaphore(client, "/leases/gpu", max_leases=4)``
`Barrier`        ``Barrier(client, "/gates/maint").wait()``
`DoubleBarrier`  ``DoubleBarrier(client, "/sync/job", n).enter() / .leave()``
`Counter`        ``jobs = Counter(client, "/stats/jobs"); jobs += 1``
`Queue`          ``Queue(client, "/queues/tasks").put(b"job")`` / ``.get()``
`Election`       ``Election(client, "/election").volunteer(on_leadership)``
===============  ==========================================================

Each recipe offers synchronous methods for linear flows and ``co_*``
coroutine forms for concurrent simulation-process drivers (see
:mod:`repro.faaskeeper.recipes.base`).
"""

from .barrier import Barrier, DoubleBarrier
from .base import Recipe, sequence_sorted
from .counter import Counter
from .election import Election
from .lock import Lock, Semaphore
from .queue import Queue

__all__ = [
    "Recipe",
    "sequence_sorted",
    "Lock",
    "Semaphore",
    "Barrier",
    "DoubleBarrier",
    "Counter",
    "Queue",
    "Election",
]
