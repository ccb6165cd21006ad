"""Reference seconds: wall time corrected for how fast the box is running.

The box this benchmark is sized on does not run at one speed.  A fixed
pure-Python loop takes between 1.0x and 2.2x its best time there, drifting
over seconds to minutes with no steal time reported, so raw wall time of a
10 s run spreads by 10-25 % between runs of the same code.  The gauge runs a
fixed burst of interpreter-bound work (a toy event loop: generators on a heap
that copy and update dict items) every ~50 ms of the measured work, and
scales each stretch of wall time by
``REFERENCE_BURST_S / (mean of the two bursts around it)``.  The sum is the
time the work would have taken had the box run the burst in
REFERENCE_BURST_S throughout; the spread of ten runs fell to 1.4-7.8 %
(perf/README.md has the tables).

The burst is part of the benchmark and frozen with it, so a change to the
simulator cannot move it.  On another box or interpreter every reference
second is longer or shorter by one constant factor, which cancels whenever a
parent and a change are measured on the same box.
"""

from __future__ import annotations

import copy
import gc
import heapq
from time import perf_counter
from typing import Any, Dict, Generator, List, Tuple

#: The burst's time on the sizing box (Xeon 2.1 GHz, CPython 3.11.7) when
#: quiet.  It only fixes the unit; see the module docstring.
REFERENCE_BURST_S = 0.0033
#: Wall time of measured work between two bursts that the timer aims for.
TARGET_STRETCH_S = 0.05

_NESTED = {"data": b"x" * 1024, "children": [f"n{i}" for i in range(8)],
           "version": 3, "acl": {"read": ["world"], "write": ["world"]},
           "stat": {"created_tx": 1, "modified_tx": 2.0}}


def _actor(store: Dict[int, Any], k: int) -> Generator:
    """One process of the burst's toy event loop: copies and updates items
    between waits, the way a simulated function handler does."""
    for step in range(16):
        key = (k * 7 + step) % 64
        item = store.get(key)
        store[key] = (copy.copy(_NESTED) if item is None
                      else dict(item, version=step))
        yield 1.0 + step * 37 % 11
        if step % 4 == 0:
            copy.deepcopy(store[key])


def reference_burst() -> float:
    """Seconds the fixed burst took just now.  The burst is a miniature of the
    simulator, generators scheduled on a heap that copy and update dict
    items, because of the kernels tried (integer loop, dict fill, call-heavy
    code, this) it followed the simulator's slowdowns most closely.  The
    collector is held off for the burst: a full collection of a large
    simulator heap landing inside it would read as a slow box.  What the
    burst allocates is freed by reference count, so the collector's counters
    leave as they came."""
    collecting = gc.isenabled()
    gc.disable()
    started = perf_counter()
    store: Dict[int, Any] = {}
    queue: List[Tuple[float, int, Generator]] = [
        (0.0, k, _actor(store, k)) for k in range(64)]
    order = len(queue)
    while queue:
        now, _order, actor = heapq.heappop(queue)
        delay = next(actor, None)
        if delay is not None:
            order += 1
            heapq.heappush(queue, (now + delay, order, actor))
    elapsed = perf_counter() - started
    if collecting:
        gc.enable()
    return elapsed


class SpeedGauge:
    """Accumulates raw and reference seconds of the work between laps.

    ``started`` is the perf_counter reading the first stretch begins at (the
    process start).  Bursts themselves are left out of both sums.
    """

    def __init__(self, started: float) -> None:
        self.bursts: List[float] = []
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.running = False
        self._burst = 0.0
        self._mark = started
        reference_burst()   # the first burst of a process runs cold; drop it
        self.lap()

    def lap(self, bursts: int = 3) -> float:
        """Close the stretch since the last lap with the mean of ``bursts``
        bursts; returns its raw wall.  Set-up has few laps, so each takes
        three bursts; the timer, with a lap every ~50 ms, takes one."""
        wall = perf_counter() - self._mark
        burst = sum(reference_burst() for _ in range(bursts)) / bursts
        local = 0.5 * (self._burst + burst) if self._burst else burst
        self.raw_s += wall
        self.ref_s += wall * REFERENCE_BURST_S / local
        self.bursts.append(burst)
        self._burst = burst
        self._mark = perf_counter()
        return wall

    def take(self) -> Tuple[float, float]:
        """(raw seconds, reference seconds) since the last take; resets both."""
        self.lap()
        taken = (self.raw_s, self.ref_s)
        self.raw_s = self.ref_s = 0.0
        return taken

    def timer(self, env, interval_ms: float = 100.0) -> Generator:
        """Sim process that laps on a virtual timer, steering the interval so
        that a stretch lasts about TARGET_STRETCH_S of wall.  It only waits,
        so it cannot move the virtual results; how many timer events it adds
        depends on the wall clock, which is why traced runs, whose kernel
        event count must repeat exactly, run without it."""
        self.running = True
        while True:
            yield env.timeout(interval_ms)
            if not self.running:
                return
            wall = self.lap(bursts=1)
            interval_ms *= min(2.0, max(0.5, TARGET_STRETCH_S / max(wall, 1e-6)))

    @property
    def box_speed(self) -> float:
        """Median speed of the box over the run; 1.0 is the sizing box, quiet."""
        ordered = sorted(self.bursts)
        return REFERENCE_BURST_S / ordered[len(ordered) // 2]
