"""The five workloads: load generation, output checks, metric extraction.

Everything here runs inside one child process per run and reaches the
simulator through its public API only.  All load is closed loop: a session
issues its next operation when the previous one completes.

A run is sized in operations, not seconds, so that every virtual-clock number
and the peak RSS are pure functions of (workload, seed, scale).  ``scale`` 1.0
is the size BENCHMARK.json's ``run_seconds`` was calibrated for.
"""

from __future__ import annotations

import bisect
import random
import resource
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.cloud import Cloud
from repro.faaskeeper import FaaSKeeperConfig, FaaSKeeperService
from repro.faaskeeper.swarm import SessionSwarm, SwarmSpec

from perf.gauge import SpeedGauge
from perf.trace import LayerTracer

#: Layers (module files) whose wall share and call count are reported by
#: name; every other repo module is summed into ``other``.
LAYERS = (
    "sim.kernel", "cloud.kvstore", "cloud.expressions", "cloud.objectstore",
    "cloud.queues", "cloud.functions", "faaskeeper.client", "faaskeeper.cache",
    "faaskeeper.follower", "faaskeeper.leader", "faaskeeper.distributor",
    "faaskeeper.watches", "faaskeeper.watch_fn", "faaskeeper.heartbeat",
    "faaskeeper.retry", "faaskeeper.userstore", "faaskeeper.service",
    "faaskeeper.metrics", "faaskeeper.model",
)

#: What a run hands back: its JSON-able result and the tracer, if it traced.
Run = Tuple[Dict[str, Any], Optional[LayerTracer]]

WARMUP_OPS = 500
DRAIN_MS = 5_000.0
SUBTREES = 8
SMALL, BIG = 1024, 64 * 1024
BACKLOG_SAMPLE_MS = 100.0


@dataclass(frozen=True)
class OpWorkload:
    """Closed-loop get_data/set_data sessions over a preloaded tree."""

    sessions: int
    ops: int                    # measured operations at scale 1.0
    read_share: float
    nodes: int                  # preloaded leaves under SUBTREES parents
    config: Dict[str, Any] = field(default_factory=dict)
    zipf: float = 0.0           # 0 = uniform node choice
    big_every: int = 0          # every Nth write of a session is 64 kB


@dataclass(frozen=True)
class SwarmWorkload:
    """One SessionSwarm run; registration is part of what it measures."""

    sessions: int               # registered sessions at scale 1.0


SWARM_CONFIG = {"user_store": "mem", "session_plane_shards": 8}
#: The cohorts of benchmarks/bench_swarm.py, but for the writers: that file's
#: 50 concurrent top-level creators die with ``create /swarm-wN: system_busy``
#: on 18 of 40 seeds (the harness does not catch it); 20 writers x 10 ops keep
#: the 200 writer ops and failed on none of 160 seeds tried.
SWARM_COHORTS = {
    "watchers": 200, "watch_paths": 10, "watch_rounds": 2,
    "writers": 20, "writer_ops": 10, "ycsb_mix": "A",
    "lock_contenders": 6, "lock_rounds": 2,
    "graceful_closes": 200, "silent": 200}
SWARM_MIN_SESSIONS = 750    # the cohorts need 656
#: A swarm's nominal operations are session-periods: a run spans 4 heartbeat
#: periods plus the session timeout.
SWARM_PERIODS = 4


#: Why each exists is in BENCHMARK.json and perf/README.md.
WORKLOADS: Dict[str, Any] = {
    "paper-rw": OpWorkload(
        sessions=1, ops=22_000, read_share=0.5, nodes=64, big_every=10),
    "scaled-rw": OpWorkload(
        sessions=16, ops=17_600, read_share=0.5, nodes=64,
        config={"distributor_enabled": True, "ack_policy": "on_commit",
                "leader_shards": 4}),
    "read-cached": OpWorkload(
        sessions=16, ops=104_000, read_share=0.99, nodes=256, zipf=0.99,
        config={"client_cache_entries": 64}),
    "read-direct": OpWorkload(
        sessions=16, ops=144_000, read_share=1.0, nodes=256, zipf=0.99),
    "swarm": SwarmWorkload(sessions=21_000),
}


# ---------------------------------------------------------------- statistics
def percentile(ordered: List[float], p: float) -> float:
    """Linear interpolation between closest ranks of an ascending list."""
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


# ------------------------------------------------------- registry and meter
class Probe:
    """Reads the public registry, cost meter and function stats, and answers
    with the difference between two readings (the measured phase)."""

    def __init__(self, cloud: Cloud, service: FaaSKeeperService) -> None:
        self.cloud = cloud
        self.service = service
        self.functions = [service.follower_fn, *service.leader_fns,
                          service.watch_fn, *service.heartbeat_fns]
        if service.distribution is not None:
            self.functions.extend(service.distribution.fns.values())
        self.before = self._read()
        self.after = self.before

    def _read(self) -> Dict[str, Any]:
        flat: Dict[Tuple[str, str], float] = {}
        for name, metric in self.service.metrics_snapshot().items():
            for labels, value in metric["values"].items():
                if isinstance(value, dict):
                    flat[name + "_sum", labels] = value["sum"]
                    flat[name + "_count", labels] = float(value["count"])
                else:
                    flat[name, labels] = value
        lines = {(line.service, line.operation): (line.count, line.dollars)
                 for line in self.cloud.meter.lines()}
        return {"flat": flat, "lines": lines, "now": self.cloud.now,
                "durations": {fn.spec.name: len(fn.durations_ms)
                              for fn in self.functions}}

    def mark_after(self, virtual_end: float) -> None:
        """Close the measured phase.  ``virtual_end`` is where it ended on the
        virtual clock; the reading itself may be taken after a drain, so that
        cost covers work still in flight while throughput does not."""
        self.after = self._read()
        self.after["now"] = virtual_end

    def total(self, metric: str, *needles: str) -> float:
        """Measured-phase growth of a registry metric, summed over the label
        sets that contain every needle (``'fn="fk-leader'`` is a prefix)."""
        before, after = self.before["flat"], self.after["flat"]
        return sum(value - before.get(key, 0.0)
                   for key, value in after.items()
                   if key[0] == metric and all(n in key[1] for n in needles))

    def segment_mean(self, fn_prefix: str, segment: str) -> Optional[float]:
        needles = (f'fn="{fn_prefix}', f'segment="{segment}"')
        count = self.total("fk_stage_segment_ms_count", *needles)
        if not count:
            return None
        return self.total("fk_stage_segment_ms_sum", *needles) / count

    def durations(self, fn_prefix: str) -> List[float]:
        """Busy time of each measured-phase invocation of matching functions."""
        out: List[float] = []
        for fn in self.functions:
            if fn.spec.name.startswith(fn_prefix):
                first = self.before["durations"][fn.spec.name]
                last = self.after["durations"][fn.spec.name]
                out.extend(fn.durations_ms[first:last])
        return out

    def metered(self) -> Dict[Tuple[str, str], Tuple[int, float]]:
        """(count, dollars) the measured phase added per (service, operation)
        line of the cost meter."""
        before = self.before["lines"]
        return {key: (n - before.get(key, (0, 0.0))[0],
                      usd - before.get(key, (0, 0.0))[1])
                for key, (n, usd) in self.after["lines"].items()}

    @property
    def virtual_s(self) -> float:
        return (self.after["now"] - self.before["now"]) / 1000.0


def _put(out: Dict[str, float], name: str, value: Optional[float]) -> None:
    """A metric that does not exist on this workload stays absent."""
    if value is not None:
        out[name] = float(value)


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def _cost_category(service: str, operation: str) -> str:
    """Every meter line falls in exactly one, so the four sum to the total."""
    if operation in ("queue_send", "stream_record"):
        return "queue"
    if service.startswith("fn:"):
        return "functions"
    if service == "dynamodb:system":
        return "system_store"
    return "user_store"


def shared_metrics(probe: Probe, ops: int, writes: int,
                   wall_s: float) -> Tuple[Dict[str, float], Dict[str, float]]:
    """End-to-end and per-layer metrics every workload derives the same way
    from the registry and the meter; ``ops`` is the workload's op count."""
    kops = ops / 1000.0
    counts = dict.fromkeys(
        ("kv_read", "kv_write", "obj_read", "obj_write", "queue_send"), 0)
    dollars = dict.fromkeys(
        ("queue", "system_store", "user_store", "functions"), 0.0)
    for (service, operation), (n, usd) in probe.metered().items():
        if operation in counts:
            counts[operation] += n
        dollars[_cost_category(service, operation)] += usd
    end_to_end = {
        "wall_ops_per_s": ops / wall_s,
        "usd_per_kop": sum(dollars.values()) / kops,
        "virt_ops_per_s": ops / probe.virtual_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layer: Dict[str, float] = {
        "cloud.kvstore.reads_per_op": counts["kv_read"] / ops,
        "cloud.kvstore.writes_per_op": counts["kv_write"] / ops,
        "cloud.objectstore.reads_per_op": counts["obj_read"] / ops,
        "cloud.objectstore.writes_per_op": counts["obj_write"] / ops,
        "cloud.queues.msgs_per_op": counts["queue_send"] / ops,
        "cloud.functions.invocations_per_op":
            probe.total("fk_fn_invocations") / ops,
        "cloud.functions.cold_starts": probe.total("fk_fn_cold_starts"),
    }
    for category, usd in dollars.items():
        layer[f"cloud.pricing.{category}_usd_per_kop"] = usd / kops

    for stage, prefix, segments in (
            ("follower", "fk-follower", ("lock", "push", "commit")),
            ("leader", "fk-leader", ("get_node", "update_user", "distribute",
                                     "watch_query", "notify", "pop")),
            ("distributor", "fk-distributor", ("update_user", "watch_query"))):
        for segment in segments:
            _put(layer, f"faaskeeper.{stage}.{segment}_mean_ms",
                 probe.segment_mean(prefix, segment))
        _put(layer, f"faaskeeper.{stage}.busy_mean_ms",
             _mean(probe.durations(prefix)))
        if stage != "distributor" and writes:
            _put(layer, f"faaskeeper.{stage}.ops_per_invocation", _ratio(
                writes, probe.total("fk_fn_invocations", f'fn="{prefix}')))
    if probe.service.distribution is not None and writes:
        _put(layer, "faaskeeper.distributor.coalesced_share", _ratio(
            probe.total("fk_distributor_coalesced_writes_total"), writes))

    layer["faaskeeper.watch_fn.fanouts_per_kop"] = (
        probe.total("fk_watch_fanouts_total") / kops)
    layer["faaskeeper.watch_fn.deliveries_per_kop"] = (
        probe.total("fk_watch_deliveries_total") / kops)
    layer["faaskeeper.retry.retries_per_kop"] = (
        probe.total("fk_storage_retries_total") / kops)

    sweeps = probe.durations("fk-heartbeat")
    layer["faaskeeper.heartbeat.sweeps"] = probe.total("fk_heartbeat_sweeps_total")
    layer["faaskeeper.heartbeat.evictions"] = (
        probe.total("fk_heartbeat_evictions_total"))
    _put(layer, "faaskeeper.heartbeat.pings_per_sweep", _ratio(
        probe.total("fk_heartbeat_sessions_checked_total"),
        layer["faaskeeper.heartbeat.sweeps"]))
    _put(layer, "faaskeeper.heartbeat.sweep_mean_ms", _mean(sweeps))
    _put(layer, "faaskeeper.heartbeat.sweep_max_ms", max(sweeps, default=None))
    for segment in ("scan", "ping"):
        _put(layer, f"faaskeeper.heartbeat.{segment}_mean_ms",
             probe.segment_mean("fk-heartbeat", segment))

    if probe.service.config.client_cache_enabled:
        hits = probe.total("fk_client_cache", 'stat="hits"')
        misses = probe.total("fk_client_cache", 'stat="misses"')
        _put(layer, "faaskeeper.cache.hit_ratio", _ratio(hits, hits + misses))
        layer["faaskeeper.cache.evictions_per_kop"] = (
            probe.total("fk_client_cache", 'stat="evictions"') / kops)
        layer["faaskeeper.cache.invalidations_per_kop"] = (
            probe.total("fk_client_cache", 'stat="invalidations"') / kops)
    return end_to_end, layer


def traced_metrics(tracer: LayerTracer, ops: int) -> Dict[str, float]:
    """Wall shares and per-op call counts of one traced measured phase."""
    layers = tracer.layers()
    layer: Dict[str, float] = {}
    other = 0.0
    for name, row in layers.items():
        share = row["self_s"] / tracer.wall_s
        if name in LAYERS:
            layer[f"{name}.wall_share"] = share
            layer[f"{name}.calls_per_op"] = row["calls"] / ops
        elif name == "driver":
            layer["driver.wall_share"] = share
        else:
            other += share
    for name in LAYERS:     # a layer no frame ran in took no time
        layer.setdefault(f"{name}.wall_share", 0.0)
        layer.setdefault(f"{name}.calls_per_op", 0.0)
    layer["other.wall_share"] = other
    layer["sim.kernel.events_per_op"] = tracer.kernel_steps / ops
    for name in ("cloud.kvstore", "cloud.objectstore"):
        layer[f"{name}.deepcopy_per_op"] = (
            layers.get(name, {}).get("deepcopies", 0) / ops)
    return layer


def _sample_backlog(env, queues, samples: List[int]) -> Generator:
    """Benchmark-owned sim process: total leader-queue backlog on a virtual
    timer.  It only waits and reads, so it cannot move the virtual results;
    it runs in traced runs alone because its events cost wall time."""
    while True:
        yield env.timeout(BACKLOG_SAMPLE_MS)
        samples.append(sum(q.backlog for q in queues))


# ------------------------------------------------------------- op workloads
def _zipf_cdf(n: int, s: float) -> List[float]:
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total, acc, cdf = sum(weights), 0.0, []
    for w in weights:
        acc += w
        cdf.append(acc / total)
    cdf[-1] = 1.0
    return cdf


class _Plan:
    """``count`` operations of one session, drawn from its seeded generator
    before anything runs.  The write share is met exactly, at seeded
    positions, so that run-to-run differences between seeds come from the
    simulator and not from a binomial draw of how many writes there are."""

    def __init__(self, wl: OpWorkload, rng: random.Random, count: int,
                 rank_to_node: List[int], cdf: Optional[List[float]]) -> None:
        self.is_write = bytearray(count)
        for k in rng.sample(range(count), round(count * (1.0 - wl.read_share))):
            self.is_write[k] = 1
        self.node = array("H", bytes(2 * count))
        for k in range(count):
            if cdf is None:
                self.node[k] = rng.randrange(wl.nodes)
            else:
                self.node[k] = rank_to_node[bisect.bisect_left(cdf, rng.random())]


class _Sink:
    """What the measured sessions record; one per phase."""

    def __init__(self, nodes: int) -> None:
        self.read_ms: List[float] = []
        self.write_ms: List[float] = []
        self.raised = 0
        self.wrong = 0
        self.errors: List[str] = []
        self.top_txid = [0] * nodes     # highest acked txid per node
        self.digests: Dict[int, int] = {}
        self.issued = 0


def _session(env, client, session: int, plan: _Plan,
             paths: List[str], tags: List[bytes], small: List[bytes],
             big: Optional[List[bytes]], big_every: int, sink: _Sink,
             tracer: Optional[LayerTracer]) -> Generator:
    """Closed loop over one plan.  Checks as it goes: the version a session
    sees of a node never decreases, which covers reading its own acked
    writes, and a read returns bytes written to that node."""
    is_write = plan.is_write
    floor = [0] * len(paths)
    read_ms, write_ms, top_txid = sink.read_ms, sink.write_ms, sink.top_txid
    digest, writes = 0xCBF29CE484222325, 0
    for k, i in enumerate(plan.node):
        sink.issued += 1
        if tracer is not None:
            tracer.op_id = sink.issued - 1
        started = env.now
        try:
            if is_write[k]:
                writes += 1
                value = (big[i] if big_every and writes % big_every == 0
                         else small[i])
                result = yield client.set_data_async(paths[i], value).event
                write_ms.append(env.now - started)
                version = result.version
                if result.txid > top_txid[i]:
                    top_txid[i] = result.txid
                token = result.txid * 2 + 1
            else:
                data, stat = yield client.get_data_async(paths[i]).event
                read_ms.append(env.now - started)
                version = stat.version
                if not data.startswith(tags[i]) or len(data) != stat.data_length:
                    sink.wrong += 1
                token = version * 2
        except Exception as exc:    # a failed op is counted, the run goes on
            sink.raised += 1
            if len(sink.errors) < 5:
                sink.errors.append(f"{type(exc).__name__}: {exc}")
            continue
        if version < floor[i]:
            sink.wrong += 1
        floor[i] = version
        # _fold() written out: a call per operation would be driver time.
        digest = ((digest ^ token) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    sink.digests[session] = digest


def _preload(client, paths: List[str], values: List[bytes]) -> Generator:
    for path, value in zip(paths, values):
        yield client.create_async(path, value).event


def _phase(env, clients, plans: List[_Plan], args: tuple, sink: _Sink,
           tracer: Optional[LayerTracer]) -> None:
    env.run(until=env.all_of([
        env.process(_session(env, client, s, plans[s], *args, sink, tracer))
        for s, client in enumerate(clients)]))


class _Measured:
    """Brackets a measured phase.  Set-up ends where it starts; an untraced
    phase runs under the speed gauge's timer, a traced one under the layer
    tracer and the backlog sampler instead."""

    def __init__(self, cloud: Cloud, service: FaaSKeeperService,
                 gauge: SpeedGauge, traced: bool) -> None:
        self.cloud, self.gauge = cloud, gauge
        self.setup_raw_s, self.setup_s = gauge.take()
        self.probe = Probe(cloud, service)
        self.backlog: List[int] = []
        self.tracer: Optional[LayerTracer] = None
        if traced:
            cloud.env.process(
                _sample_backlog(cloud.env, service.leader_queues, self.backlog))
            self.tracer = LayerTracer(lambda: cloud.now)
            self.tracer.start()
        elif not gauge.running:
            cloud.env.process(gauge.timer(cloud.env))

    def stop(self) -> None:
        if self.tracer is not None:
            self.tracer.stop()
        self.gauge.running = False
        self.raw_s, self.ref_s = self.gauge.take()
        self.virtual_end = self.cloud.now
        self.backlog = list(self.backlog)   # the sampler outlives the phase

    def result(self, ops: int, writes: int, attempted: int, failed: int,
               checks: Dict[str, bool], errors: List[str], digest: int,
               counts: Dict[str, Any], layer: Dict[str, float]) -> Run:
        end_to_end, shared = shared_metrics(self.probe, ops, writes, self.ref_s)
        end_to_end["setup_s"] = self.setup_s
        layer.update(shared)
        if self.backlog:
            layer["cloud.queues.leader_backlog_mean"] = (
                sum(self.backlog) / len(self.backlog))
            layer["cloud.queues.leader_backlog_max"] = float(max(self.backlog))
        if self.tracer is not None:
            layer.update(traced_metrics(self.tracer, ops))
        return {
            "attempted": attempted, "failed": min(attempted, failed),
            "checks": checks, "errors": errors, "digest": f"{digest:016x}",
            "counts": counts, "end_to_end": end_to_end, "per_layer": layer,
            "ref_s": self.ref_s,
            # Uncorrected wall clock, for the record; no declared metric.
            "raw": {"wall_ops_per_s": ops / self.raw_s,
                    "setup_s": self.setup_raw_s,
                    "box_speed": self.gauge.box_speed},
        }, self.tracer


def _fold(digest: int, token: int) -> int:
    """One FNV-1a step over integers: the output digest's mixing function."""
    return ((digest ^ token) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF


def run_ops(wl: OpWorkload, seed: int, scale: float, traced: bool,
            gauge: SpeedGauge, setup_only: bool) -> Run:
    per_session = max(1, int(wl.ops * scale) // wl.sessions)
    planned = per_session * wl.sessions

    # ---- set-up: inputs from the seed, deploy, preload, warm up
    order = list(range(wl.nodes))
    random.Random(seed).shuffle(order)      # Zipf rank -> node, seeded
    cdf = _zipf_cdf(wl.nodes, wl.zipf) if wl.zipf else None
    rngs = [random.Random(seed * 1_000_003 + s) for s in range(wl.sessions)]
    warm_plans = [_Plan(wl, rng, max(1, WARMUP_OPS // wl.sessions), order, cdf)
                  for rng in rngs]
    plans = [_Plan(wl, rng, per_session, order, cdf) for rng in rngs]
    paths = [f"/t{i % SUBTREES}/n{i}" for i in range(wl.nodes)]
    tags = [b"%04d|" % i for i in range(wl.nodes)]
    small = [tag.ljust(SMALL, b"s") for tag in tags]
    big = [tag.ljust(BIG, b"b") for tag in tags] if wl.big_every else None
    gauge.lap()

    cloud = Cloud.aws(seed=seed)
    env = cloud.env
    service = FaaSKeeperService.deploy(cloud, FaaSKeeperConfig(**wl.config))
    clients = ([service.connect()] if wl.sessions == 1
               else service.connect_many(wl.sessions))
    if not traced:      # from here the gauge laps by itself
        env.process(gauge.timer(env))
    for i in range(SUBTREES):
        clients[0].create(f"/t{i}", b"")
    share = [list(range(s, wl.nodes, wl.sessions)) for s in range(wl.sessions)]
    env.run(until=env.all_of([
        env.process(_preload(client, [paths[i] for i in mine],
                             [small[i] for i in mine]))
        for client, mine in zip(clients, share)]))
    args = (paths, tags, small, big, wl.big_every)
    warm_sink = _Sink(wl.nodes)
    _phase(env, clients, warm_plans, args, warm_sink, None)
    if setup_only:
        return {"setup_s": gauge.take()[1]}, None

    # ---- measured phase
    measured = _Measured(cloud, service, gauge, traced)
    sink = _Sink(wl.nodes)
    _phase(env, clients, plans, args, sink, measured.tracer)
    measured.stop()

    # ---- drain, then check what a fresh session finds
    cloud.run(until=cloud.now + DRAIN_MS)
    measured.probe.mark_after(measured.virtual_end)
    verifier = service.connect()
    final_ok = True
    for i, path in enumerate(paths):
        top = max(sink.top_txid[i], warm_sink.top_txid[i])
        _data, stat = verifier.get_data(path)
        if top and stat.modified_tx != top:
            final_ok = False
    completed = len(sink.read_ms) + len(sink.write_ms)
    checks = {
        "versions_monotonic_and_values_valid": sink.wrong == 0,
        "final_state_is_highest_acked_txid": final_ok,
        "planned_equals_completed_plus_failed":
            planned == completed + sink.raised and sink.issued == planned,
    }
    layer: Dict[str, float] = {}
    for kind, values in (("read", sink.read_ms), ("write", sink.write_ms)):
        if values:
            values.sort()
            layer[f"faaskeeper.client.{kind}_p50_ms"] = percentile(values, 50)
            layer[f"faaskeeper.client.{kind}_p99_ms"] = percentile(values, 99)
    digest = 0
    for s in sorted(sink.digests):
        digest = _fold(digest, sink.digests[s])
    return measured.result(
        planned, len(sink.write_ms), attempted=planned,
        failed=planned - completed + sink.wrong, checks=checks,
        errors=sink.errors, digest=digest,
        counts={"reads": len(sink.read_ms), "writes": len(sink.write_ms)},
        layer=layer)


# ------------------------------------------------------------------- swarm
def run_swarm(wl: SwarmWorkload, seed: int, scale: float, traced: bool,
              gauge: SpeedGauge, setup_only: bool) -> Run:
    sessions = max(SWARM_MIN_SESSIONS, int(wl.sessions * scale))
    cloud = Cloud.aws(seed=seed)
    service = FaaSKeeperService.deploy(cloud, FaaSKeeperConfig(**SWARM_CONFIG))
    if setup_only:      # registration is part of the measured phase
        return {"setup_s": gauge.take()[1]}, None

    spec = SwarmSpec(sessions=sessions,
                     registration_wave=max(1_000, sessions // 20),
                     seed=seed, **SWARM_COHORTS)
    swarm = SessionSwarm(cloud, service, spec)
    registration_wall = [0.0]
    connect_many = service.connect_many

    def timed_connect_many(*args, **kwargs):
        t0 = perf_counter()
        try:
            return connect_many(*args, **kwargs)
        finally:
            registration_wall[0] += perf_counter() - t0

    service.connect_many = timed_connect_many
    measured = _Measured(cloud, service, gauge, traced)
    errors: List[str] = []
    report: Dict[str, Any] = {}
    try:
        report = swarm.run()
    except Exception as exc:    # a harness crash is a failed run, not a traceback
        errors.append(f"{type(exc).__name__}: {exc}")
    measured.stop()
    measured.probe.mark_after(measured.virtual_end)

    cohorts = SWARM_COHORTS
    expected = {
        "live_at_end": (sessions + cohorts["watch_paths"]
                        - cohorts["graceful_closes"] - cohorts["silent"]),
        "evicted": cohorts["silent"],
        "lock_grants": cohorts["lock_contenders"] * cohorts["lock_rounds"],
        "writer_ops": cohorts["writers"] * cohorts["writer_ops"],
    }
    attempted = sum(expected.values())
    failed = attempted if errors else sum(
        abs(want - report.get(key, 0)) for key, want in expected.items())

    layer: Dict[str, float] = {}
    for name, values in (("watch_fanout", sorted(swarm.watch_fanout_ms)),
                         ("eviction_lag", sorted(swarm.eviction_lag_ms))):
        if values:
            layer[f"faaskeeper.swarm.{name}_p50_ms"] = percentile(values, 50)
            layer[f"faaskeeper.swarm.{name}_p95_ms"] = percentile(values, 95)
    waves = sorted(swarm.registration_rate_per_s)
    if waves:
        layer["faaskeeper.service.registration_per_s"] = percentile(waves, 50)
    layer["faaskeeper.service.registration_wall_s"] = registration_wall[0]
    layer["faaskeeper.service.sessions_live_end"] = float(service.active_sessions)
    digest = 0xCBF29CE484222325
    for value in swarm.watch_fanout_ms + swarm.eviction_lag_ms:
        digest = _fold(digest, hash(value))
    return measured.result(
        sessions * SWARM_PERIODS, 0, attempted=attempted, failed=failed,
        checks={key: report.get(key) == want for key, want in expected.items()},
        errors=errors, digest=digest,
        counts={key: report.get(key) for key in expected}, layer=layer)


def run_workload(name: str, seed: int, scale: float, traced: bool,
                 gauge: SpeedGauge, setup_only: bool = False) -> Run:
    """One run in this process: (result, tracer or None).  ``gauge`` has been
    running since the process started; set-up time counts from there."""
    wl = WORKLOADS[name]
    runner = run_swarm if isinstance(wl, SwarmWorkload) else run_ops
    return runner(wl, seed, scale, traced, gauge, setup_only)
