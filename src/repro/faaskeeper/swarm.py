"""Session-swarm load harness: 100k live sessions on the virtual clock.

The paper evaluates FaaSKeeper with a handful of clients; the session
plane's costs only show at four orders of magnitude more.  This module
spins up ``SwarmSpec.sessions`` live sessions against one deployment and
drives realistic churn — batched registration, heartbeat-answering
passives, watch-heavy cohorts, YCSB-mix writers, a Lock-recipe contention
group, graceful closes and silent failures — entirely on the simulation
clock, with every random choice drawn from seeded RNGs (fklint FK001
clean), so a given spec replays bit-for-bit.

Four metric families come out of a run (p50/p99/p999 each):

* **heartbeat sweep latency** — execution time of every heartbeat-sweep
  invocation across all session-plane shards (``fn.durations_ms``);
* **watch fan-out latency** — per-delivery time from a hot-path write's
  submission to the watcher's callback firing;
* **eviction lag** — time from a session going silent to the evictor
  closing it (``client.closed_at``);
* **registration throughput** — per-wave sessions/s through the batched
  ``Service.connect_many`` path.

``benchmarks/bench_swarm.py`` runs the same spec flat
(``session_plane_shards=1``) and sharded and gates the sweep-latency
improvement; the integration tests run scaled-down swarms.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Any, Dict, List

from ..sim.kernel import AllOf
from ..sim.rng import percentile
from .recipes import Lock

__all__ = ["SwarmSpec", "SessionSwarm", "summarize_samples"]


@dataclass(frozen=True)
class SwarmSpec:
    """Shape of one swarm run.  Cohort sizes are session counts carved out
    of the registered population (disjoint; the remainder stays passive,
    answering heartbeats and nothing else)."""

    #: Total sessions registered up front (the live population).
    sessions: int = 100_000
    #: ``BatchWriteItem`` chunk size for registration.
    registration_batch: int = 25
    #: Sessions registered per throughput-measurement wave.
    registration_wave: int = 5_000
    #: Sessions arming data watches on the hot paths.
    watchers: int = 200
    #: Hot paths the watcher cohort spreads over.
    watch_paths: int = 10
    #: Write rounds against each hot path (each re-arms its watchers).
    watch_rounds: int = 2
    #: Writer sessions running the YCSB mix on private paths.
    writers: int = 50
    #: Operations each writer performs.
    writer_ops: int = 4
    #: YCSB core workload name driving the writer mix ("A".."F").
    ycsb_mix: str = "A"
    #: Lock-recipe contenders on one shared lock path.
    lock_contenders: int = 6
    #: Acquire/release rounds per contender.
    lock_rounds: int = 2
    #: Sessions that close gracefully mid-run (connect/disconnect churn).
    graceful_closes: int = 200
    #: Sessions that go silent (``alive = False``) and must be evicted.
    silent: int = 200
    #: Virtual run time after registration; must cover enough heartbeat
    #: periods for sweeps and evictions to land (0 = auto: 4 periods +
    #: the session timeout).
    duration_ms: float = 0.0
    #: Master seed for every cohort-selection and workload draw.
    seed: int = 20240801

    def __post_init__(self) -> None:
        active = (self.watchers + self.writers + self.lock_contenders
                  + self.graceful_closes + self.silent)
        if active > self.sessions:
            raise ValueError(
                f"cohorts need {active} sessions, spec has {self.sessions}")
        if self.watch_paths < 1 or self.registration_wave < 1:
            raise ValueError("watch_paths and registration_wave must be >= 1")


def summarize_samples(samples: List[float]) -> Dict[str, Any]:
    """p50/p99/p999 + count/mean for one metric family (JSON-able)."""
    if not samples:
        return {"n": 0, "p50": None, "p99": None, "p999": None, "mean": None}
    return {
        "n": len(samples),
        "p50": percentile(samples, 50.0),
        "p99": percentile(samples, 99.0),
        "p999": percentile(samples, 99.9),
        "mean": sum(samples) / len(samples),
    }


class SessionSwarm:
    """Drives one :class:`SwarmSpec` against a deployed service.

    Construct with a fresh deployment (no sessions yet), call :meth:`run`
    once; the report dict carries the four metric families plus raw
    bookkeeping the benchmarks and tests assert on.
    """

    def __init__(self, cloud, service, spec: SwarmSpec) -> None:
        self.cloud = cloud
        self.service = service
        self.spec = spec
        self.clients: List[Any] = []
        # Sample sinks (virtual-clock milliseconds).
        self.watch_fanout_ms: List[float] = []
        self.eviction_lag_ms: List[float] = []
        self.registration_rate_per_s: List[float] = []
        self._silenced: List[Any] = []  # (client, virtual instant)
        self._lock_grants = 0
        self._writer_ops_done = 0

    # ------------------------------------------------------------ phases
    def _register(self) -> None:
        """Batched registration in throughput-measurement waves."""
        spec = self.spec
        env = self.cloud.env
        remaining = spec.sessions
        while remaining > 0:
            wave = min(spec.registration_wave, remaining)
            t0 = env.now
            self.clients.extend(self.service.connect_many(
                wave, batch_size=spec.registration_batch))
            elapsed_ms = env.now - t0
            if elapsed_ms > 0:
                self.registration_rate_per_s.append(1000.0 * wave / elapsed_ms)
            remaining -= wave

    def _pick_cohorts(self) -> Dict[str, List[Any]]:
        """Disjoint cohort assignment, seeded — replayable per spec."""
        spec = self.spec
        order = list(range(len(self.clients)))
        random.Random(spec.seed).shuffle(order)
        cursor = 0

        def take(n: int) -> List[Any]:
            nonlocal cursor
            out = [self.clients[i] for i in order[cursor:cursor + n]]
            cursor += n
            return out

        return {
            "watchers": take(spec.watchers),
            "writers": take(spec.writers),
            "lockers": take(spec.lock_contenders),
            "graceful": take(spec.graceful_closes),
            "silent": take(spec.silent),
        }

    # -- watch-heavy cohort -------------------------------------------------
    def _hot_path_driver(self, path: str, owner, watchers: List[Any]):
        """One hot path: rounds of (arm all watchers, write, await fan-out).

        Fan-out latency is write-submission to callback delivery, per
        watcher — the client-visible notification lag, including the write
        pipeline the trigger rides.
        """
        env = self.cloud.env
        yield owner.create_async(path, b"swarm").event
        for round_no in range(self.spec.watch_rounds):
            done = env.event()
            done.defused()
            pending = [len(watchers)]
            submitted = [0.0]

            def on_event(_event, _pending=pending, _submitted=submitted,
                         _done=done):
                self.watch_fanout_ms.append(env.now - _submitted[0])
                _pending[0] -= 1
                if _pending[0] == 0 and not _done.triggered:
                    _done.succeed(None)

            # (Re-)arm: one-shot watches are consumed by the previous
            # round's write, so each round registers fresh instances —
            # re-arming under load is part of the workload.
            armed = [c.get_data_async(path, watch=on_event).event
                     for c in watchers]
            if armed:
                yield AllOf(env, armed)
            submitted[0] = env.now
            yield owner.set_data_async(path, b"v%d" % round_no).event
            if watchers:
                yield done

    # -- YCSB writer cohort ---------------------------------------------------
    def _writer(self, idx: int, client):
        """One writer session running the spec's YCSB mix on private paths."""
        from ..workloads.ycsb import CORE_WORKLOADS
        mix = next(w for w in CORE_WORKLOADS if w.name == self.spec.ycsb_mix)
        rng = random.Random(self.spec.seed * 1_000_003 + idx)
        base = f"/swarm-w{idx}"
        yield client.create_async(base, b"0").event
        inserts = 0
        for _ in range(self.spec.writer_ops):
            draw = rng.random()
            if draw < mix.read:
                yield client.get_data_async(base).event
            elif draw < mix.read + mix.update + mix.read_modify_write:
                # update and RMW both land as a set_data; RMW reads first.
                if draw >= mix.read + mix.update:
                    yield client.get_data_async(base).event
                yield client.set_data_async(base, b"u").event
            elif draw < mix.read + mix.update + mix.read_modify_write \
                    + mix.insert:
                inserts += 1
                yield client.create_async(f"{base}/n{inserts}", b"").event
            else:  # scan
                yield client.get_children_async(base).event
            self._writer_ops_done += 1
            yield self.cloud.env.timeout(1.0 + rng.random() * 25.0)

    # -- Lock-recipe contention group -----------------------------------------
    def _locker(self, idx: int, client, hold_ms: float = 20.0):
        lock = Lock(client, "/swarm-lock", identifier=f"swarm-{idx}")
        for _ in range(self.spec.lock_rounds):
            acquired = yield from lock.co_acquire()
            if acquired:
                self._lock_grants += 1
                yield self.cloud.env.timeout(hold_ms)
                yield from lock.co_release()

    # -- churn cohorts --------------------------------------------------------
    def _graceful_closer(self, client, after_ms: float):
        yield self.cloud.env.timeout(after_ms)
        if not client.closed:
            yield client.close_async().event

    def _silencer(self, client, after_ms: float):
        yield self.cloud.env.timeout(after_ms)
        if not client.closed:
            self._silenced.append((client, self.cloud.env.now))
            client.alive = False

    # ------------------------------------------------------------ run
    def run(self) -> Dict[str, Any]:
        spec = self.spec
        env = self.cloud.env
        config = self.service.config
        duration_ms = spec.duration_ms or (
            4.0 * config.heartbeat_period_ms + 10_000.0)

        self._register()
        live_after_registration = self.service.active_sessions
        cohorts = self._pick_cohorts()
        stagger = random.Random(spec.seed + 1)

        procs = []
        # Watchers spread round-robin over the hot paths; each path's
        # writes come from a dedicated writer outside the watcher cohort.
        per_path: List[List[Any]] = [[] for _ in range(spec.watch_paths)]
        for i, c in enumerate(cohorts["watchers"]):
            per_path[i % spec.watch_paths].append(c)
        owners = self.service.connect_many(spec.watch_paths)
        for i, watchers in enumerate(per_path):
            procs.append(env.process(
                self._hot_path_driver(f"/swarm-hot{i}", owners[i], watchers),
                name=f"swarm:hot{i}"))
        for i, c in enumerate(cohorts["writers"]):
            procs.append(env.process(self._writer(i, c),
                                     name=f"swarm:writer{i}"))
        for i, c in enumerate(cohorts["lockers"]):
            procs.append(env.process(self._locker(i, c),
                                     name=f"swarm:lock{i}"))
        # Churn is staggered across the first heartbeat period so closes
        # and silences overlap registration-fresh sweeps.
        for c in cohorts["graceful"]:
            procs.append(env.process(self._graceful_closer(
                c, stagger.random() * config.heartbeat_period_ms),
                name="swarm:close"))
        for c in cohorts["silent"]:
            procs.append(env.process(self._silencer(
                c, stagger.random() * config.heartbeat_period_ms),
                name="swarm:silent"))

        start = env.now
        self.cloud.run(until=start + duration_ms)
        # Cohort work should be long done; drain any stragglers without
        # advancing past the measurement window by more than one period.
        pending = [p for p in procs if not p.triggered]
        if pending:
            self.cloud.run(until=AllOf(env, pending))

        for client, silenced_at in self._silenced:
            if client.closed_at is not None:
                self.eviction_lag_ms.append(client.closed_at - silenced_at)

        sweep_ms = [d for fn in self.service.heartbeat_fns
                    for d in fn.durations_ms]
        return {
            "spec": asdict(spec),
            "session_plane_shards": config.session_plane_shards,
            "sessions_registered": len(self.clients) + spec.watch_paths,
            "live_after_registration": live_after_registration,
            "live_at_end": self.service.active_sessions,
            "sweeps": len(sweep_ms),
            "evicted": len(self.eviction_lag_ms),
            "lock_grants": self._lock_grants,
            "writer_ops": self._writer_ops_done,
            "metrics": {
                "heartbeat_sweep_ms": summarize_samples(sweep_ms),
                "watch_fanout_ms": summarize_samples(self.watch_fanout_ms),
                "eviction_lag_ms": summarize_samples(self.eviction_lag_ms),
                "registration_rate_per_s": summarize_samples(
                    self.registration_rate_per_s),
            },
        }
