"""FaaSKeeper deployment: wiring functions, queues and storage (Figure 2b).

``FaaSKeeperService.deploy(cloud, config)`` stands up one instance:

* system tables (nodes, state, sessions, watches) in the key-value store;
* the user store backend of choice, replicated per region;
* the **stage list** ``service.stages`` — one :class:`Stage` per deployed
  function, each with its one trigger (a FIFO queue, a cron, or neither
  for a free function).  Every stage comes into being in
  :meth:`FaaSKeeperService._deploy_stage`, and whatever enumerates stages
  — per-function metrics, the scale-to-zero start/stop of the crons, the
  chaos harness's arming, the function side of the cost categories —
  reads that list (the README's "Architecture" table is its rendering).

``connect()`` returns a :class:`~repro.faaskeeper.client.FaaSKeeperClient`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from ..cloud.cloud import Cloud
from ..cloud.context import OpContext
from ..cloud.errors import NoSuchQueue
from ..cloud.queues import SharedSequence
from ..primitives import TimedLock
from ..sim.kernel import AllOf, Timeout
from .client import FaaSKeeperClient
from .config import FaaSKeeperConfig
from .distributor import DistributionStage, GateBoard
from .follower import (
    FOLLOWER_BATCH,
    LEADER_BATCH,
    LOCK_MAX_HOLD_MS,
    FollowerLogic,
)
from .gc import GC_PERIOD_MS, GarbageCollectorLogic
from .heartbeat import HeartbeatLogic
from .layout import (
    SYSTEM_LOG,
    SYSTEM_NODES,
    SYSTEM_SESSIONS,
    SYSTEM_SNAPSHOT,
    SYSTEM_STATE,
    SYSTEM_WATCHES,
    epoch_key,
    new_system_node,
    replicated_key,
    shard_of_path,
    user_image_from_system,
)
from .leader import LeaderLogic
from .metrics import MetricsRegistry
from .model import KeeperState, Response, WatchedEvent
from .outbox import OutboxStage
from .retry import (BREAKER_OPEN, KV_OPS, USER_OPS, RetryPolicy,
                    RetryingStore)
from .snapshot import SnapshotManager
from .watch_fn import WatchFanoutLogic
from .watches import EpochLedger, WatchRegistry

__all__ = ["FaaSKeeperService", "Stage", "STAGE_KINDS"]

#: Stage kinds, in ``cost_breakdown()``'s key order.  A kind is the unit of
#: cost attribution (one ``fk_cost_dollars`` category, summed over the
#: kind's shards/regions) and of crash-point arming (``chaos.CRASH_POINTS``).
STAGE_KINDS = ("follower", "leader", "distributor", "watch", "heartbeat",
               "gc", "snapshot", "outbox")


def _suffix(shard: int) -> str:
    """Shard 0 of a sharded kind keeps the bare historical name."""
    return f"-{shard}" if shard else ""


@dataclass
class Stage:
    """One row of the deployment: a function, the logic object behind its
    handler (``logic.handler``; ``logic.cold_restart`` if it keeps warm
    state) and its trigger — ``queue`` (FIFO, carries the batch limit),
    ``task`` (cron, carries period and offset), or neither."""

    name: str
    kind: str
    logic: Any
    fn: Any
    queue: Any = None
    task: Any = None


class FaaSKeeperService:
    """One deployed FaaSKeeper instance."""

    def __init__(self, cloud: Cloud, config: FaaSKeeperConfig) -> None:
        self.cloud = cloud
        self.config = config
        self.rng = cloud.rng.stream("faaskeeper")
        self._tcp = cloud.rng.stream("tcp")
        #: One frozen caller context per region, shared by its clients.
        self._region_ctx: Dict[str, OpContext] = {}
        self.system_ctx = self.region_ctx(config.primary_region)
        #: The deployment's metric namespace.  Created first: every stage
        #: logic below registers its counters here.  Metrics are pure
        #: Python bookkeeping (no simulated latency, RNG draws or billed
        #: traffic), so the registry rides inside the bit-for-bit-gated
        #: default deployment.
        self.metrics = MetricsRegistry()

        # --- system storage -------------------------------------------------
        # Every storage round trip below goes through the one retry/breaker
        # proxy.  Its jitter stream is created lazily on the first actual
        # retry, so fault-free runs keep the raw store's RNG draw sequence
        # — and their fingerprints — bit-for-bit.
        policy = RetryPolicy()
        self.system_store = RetryingStore(
            cloud.kv("dynamodb:system", region=config.primary_region),
            "system", KV_OPS, cloud.env,
            lambda: cloud.rng.stream("storage-retry:system"),
            policy, self.metrics, self._on_breaker_transition)
        for table in (SYSTEM_NODES, SYSTEM_STATE, SYSTEM_SESSIONS, SYSTEM_WATCHES):
            self.system_store.create_table(table)
        self.node_lock = TimedLock(self.system_store, SYSTEM_NODES,
                                   max_hold_ms=LOCK_MAX_HOLD_MS)
        self.epoch_ledger = EpochLedger(self.system_store, SYSTEM_STATE,
                                        config.regions)
        self.watch_registry = WatchRegistry(self.system_store)

        # --- user storage ---------------------------------------------------
        from .userstore import make_user_store

        self.user_store = RetryingStore(
            make_user_store(cloud, config), "user", USER_OPS, cloud.env,
            lambda: cloud.rng.stream("storage-retry:user"),
            policy, self.metrics, self._on_breaker_transition)
        #: Fault injectors armed on this deployment (empty = clean run).
        self.storage_injectors: List[Any] = []
        if config.storage_fault_rate > 0:
            self.arm_storage_faults(config.storage_fault_rate)

        # --- sessions ----------------------------------------------------------
        self._session_ids = itertools.count(1)
        self.clients: Dict[str, FaaSKeeperClient] = {}
        #: Clients in ``self.clients`` not yet closed: +1 where one is
        #: inserted, -1 on its first ``_mark_closed``.
        self._live_sessions = 0
        self._session_queues: Dict[str, Any] = {}

        #: Every deployed stage, in deployment order (see _deploy_stages).
        self.stages: List[Stage] = []
        self._wire_metrics()
        self._deploy_stages()
        self._bootstrap_root()

    def _deploy_stages(self) -> None:
        """The deployment declaration (Figure 2b): one ``_deploy_stage``
        per function.  Names and creation order are load-bearing — RNG
        streams, cost labels and same-instant event order derive from them;
        shard 0 of a sharded kind keeps the bare historical name, so the
        one-shard deployment is bit-identical to the paper's single-leader
        pipeline.  The attributes below are views of ``self.stages``."""
        config, deploy = self.config, self._deploy_stage
        shards = config.leader_shards
        self.fence_board: Optional[GateBoard] = (
            GateBoard(self.cloud.env) if shards > 1 else None)
        self.follower_fn = deploy("fk-follower", "follower",
                                  FollowerLogic(self)).fn
        # All shard queues draw txids from one sequence, keeping transaction
        # ids globally comparable (MRD tracking, applied_tx watermarks).
        txids = SharedSequence() if shards > 1 else None
        leaders = [
            deploy("fk-leader" + _suffix(i), "leader",
                   LeaderLogic(self, shard=i), queue="fk-leader-q" + _suffix(i),
                   batch=LEADER_BATCH, seq_source=txids)
            for i in range(shards)
        ]
        self.leader_fns = [stage.fn for stage in leaders]
        self.leader_queues = [stage.queue for stage in leaders]
        self.watch_fn = deploy("fk-watch", "watch", WatchFanoutLogic(self)).fn
        # One sweep per session-plane shard, phase-staggered across the
        # period so they do not all hit the session table's capacity bucket
        # (or hold their scan results) at once; shard 0 sits at offset 0.
        plane, period = config.session_plane_shards, config.heartbeat_period_ms
        sweeps = [
            deploy("fk-heartbeat" + _suffix(i), "heartbeat",
                   HeartbeatLogic(self, shard=i, shards=plane),
                   period_ms=period, offset_ms=i * period / plane)
            for i in range(plane)
        ]
        self.heartbeat_fns = [stage.fn for stage in sweeps]
        self.heartbeat_tasks = [stage.task for stage in sweeps]
        gc = deploy("fk-gc", "gc", GarbageCollectorLogic(self),
                    period_ms=GC_PERIOD_MS)
        self.gc_fn, self.gc_task = gc.fn, gc.task

        # Distributor stage (None = the paper's inline pipeline): one
        # function + queue per region.
        self.distribution: Optional[DistributionStage] = (
            DistributionStage(self) if config.distributor_enabled else None)

        # Durability: commit log + fuzzy snapshots (opt-in).  Gated on
        # commit_log_enabled so the default deployments keep their
        # deployment-time RNG draws — and therefore their latency/cost
        # fingerprints — bit-for-bit.
        self.snapshots: Optional[SnapshotManager] = None
        if config.commit_log_enabled:
            for table in (SYSTEM_LOG, SYSTEM_SNAPSHOT):
                self.system_store.create_table(table)
            self.snapshots = SnapshotManager(self)
            deploy("fk-snapshot", "snapshot", self.snapshots,
                   period_ms=config.snapshot_auto_ms)

        # Transactional outbox (opt-in event streaming).
        self.outbox: Optional[OutboxStage] = (
            OutboxStage(self) if config.outbox_enabled else None)

    # ------------------------------------------------------------ deployment
    @classmethod
    def deploy(cls, cloud: Cloud, config: Optional[FaaSKeeperConfig] = None
               ) -> "FaaSKeeperService":
        return cls(cloud, config or FaaSKeeperConfig())

    def _deploy_stage(self, name: str, kind: str, logic: Any, *,
                      region: Optional[str] = None,
                      queue: Optional[str] = None,
                      batch: Optional[int] = None, seq_source: Any = None,
                      period_ms: float = 0.0, offset_ms: float = 0.0
                      ) -> Stage:
        """The one place a stage comes into being: deploy ``logic.handler``
        as function ``name``, give it its trigger — FIFO queue ``queue``
        (redelivering forever) drained ``batch`` messages at a time, and/or
        a cron every ``period_ms`` (0 = none), suspended while no session
        is open — append it to ``self.stages`` and hang its metrics on the
        registry: the ``on_segment`` timing probe, the function lifecycle
        gauges, and the ``fk_cost_dollars`` category of its kind."""
        config, cloud, m = self.config, self.cloud, self.metrics
        fn = cloud.deploy_function(
            name, logic.handler, memory_mb=config.function_memory_mb,
            arch=config.arch, cpu_alloc=config.cpu_alloc,
            region=region or config.primary_region)
        stage = Stage(name, kind, logic, fn)
        if queue is not None:
            stage.queue = cloud.fifo_queue(queue, label="sqs",
                                           max_receive=None,
                                           seq_source=seq_source)
            stage.queue.attach(fn, batch_limit=batch)
        if period_ms > 0:
            stage.task = cloud.runtime.schedule(fn, period_ms=period_ms,
                                                offset_ms=offset_ms)
            if not self.active_sessions:
                stage.task.stop()  # scale-to-zero until a client connects
        self.stages.append(stage)

        segments = m.get("fk_stage_segment_ms")
        observers: Dict[str, Any] = {}  # segment -> its child's observe

        def on_segment(segment: str, elapsed_ms: float) -> None:
            observe = observers.get(segment)
            if observe is None:
                observe = observers[segment] = segments.labels(
                    fn=name, segment=segment).observe
            observe(elapsed_ms)

        fn.on_segment = on_segment
        for attr in ("invocations", "cold_starts", "failures"):
            m.get(f"fk_fn_{attr}").labels(fn=name).set_function(
                lambda _a=attr: float(getattr(fn, _a)))
        self._cost_category(kind)
        return stage

    # ------------------------------------------------------------ resilience
    def arm_storage_faults(self, rate: float) -> List[Any]:
        """Arm a seeded transient-fault schedule on every storage endpoint.

        One :class:`~repro.cloud.faults.FaultInjector` per fault point (the
        system key-value store behind its proxy plus whatever endpoints the
        user backend reports), each driven by its own named RNG stream
        (``storage-faults:<label>@<region>``), so the schedule replays
        exactly for a given sim seed and is independent of every other
        stream.  Idempotent per deployment: re-arming replaces the
        previous injectors.
        """
        from ..cloud.faults import FAULT_KINDS, FaultInjector

        injectors = []
        for point in (self.system_store.inner,
                      *self.user_store.inner.fault_points()):
            label = getattr(point, "service_label", "kv")
            region = getattr(point, "region", "all")
            stream = self.cloud.rng.stream(f"storage-faults:{label}@{region}")
            injector = FaultInjector(self.cloud.env, stream, rate)
            point.faults = injector
            injectors.append(injector)
        self.storage_injectors = injectors
        injected = self.metrics.gauge(
            "fk_storage_faults_injected",
            "Transient storage faults injected, by kind", ("kind",))
        for kind in FAULT_KINDS:
            injected.labels(kind=kind).set_function(
                lambda k=kind: float(sum(i.injected[k]
                                         for i in self.storage_injectors)))
        return injectors

    def _on_breaker_transition(self, label: str, region: str, state: str
                               ) -> None:
        """An OPEN breaker means the store endpoint is effectively down:
        shed the affected sessions to SUSPENDED (not LOST — the next
        successful round trip after recovery heals them)."""
        if state != BREAKER_OPEN:
            return
        for client in list(self.clients.values()):
            if label == "system" or client.region == region:
                client._transition(KeeperState.SUSPENDED)

    @property
    def visibility_board(self):
        """Per-region replication visibility (None without the distributor:
        the leader's inline replication makes acked writes visible)."""
        return self.distribution.visibility if self.distribution else None

    # ------------------------------------------------------------ routing
    def shard_of(self, path: str) -> int:
        """Leader shard owning ``path`` (hash of the top-level component)."""
        return shard_of_path(path, self.config.leader_shards)

    def multi_shard_of(self, paths) -> int:
        """Coordinator shard of a transaction: the lowest shard id among the
        shards owning its written paths.  A single-shard multi commits
        natively on its own shard; a cross-shard multi rides the
        coordinator's queue and relies on the session fences plus the
        per-path pending-transaction gates to order its writes against the
        owning shards' traffic — sound because every committed write appends
        its txid to each touched path's pending list under the node lock,
        giving a per-path total order every leader observes before
        replicating.
        """
        shards = {self.shard_of(p) for p in paths}
        return min(shards) if shards else 0

    def _bootstrap_root(self) -> None:
        """Install "/" in system and user stores (zero-latency, deploy time)."""
        root = new_system_node(0, created_tx=0)
        self.system_store.table(SYSTEM_NODES)._store("/", root)
        state = self.system_store.table(SYSTEM_STATE)
        for region in self.config.regions:
            image = user_image_from_system("/", root, epoch=[])
            self.cloud.run_process(
                self.user_store.write_node(self.system_ctx, region, "/", image))
            state._store(epoch_key(region), {"items": []})  # nothing pending
            if self.distribution is not None:
                # visibility watermarks start at zero (nothing replicated yet)
                state._store(replicated_key(region), {"txid": 0})

    # ------------------------------------------------------------ sessions
    @property
    def active_sessions(self) -> int:
        return self._live_sessions

    def region_ctx(self, region: str) -> OpContext:
        return self._region_ctx.setdefault(region, OpContext(region=region))

    def connect(self, region: Optional[str] = None) -> FaaSKeeperClient:
        """Open one session: its own FIFO queue, a session record, a client."""
        return self.connect_many(1, region)[0]

    def connect_many(self, count: int, region: Optional[str] = None,
                     batch_size: int = 25) -> List[FaaSKeeperClient]:
        """Open ``count`` sessions: the one registration path.

        Each session gets its own FIFO queue (feeding the follower) and
        client; the session records land in ``BatchWriteItem`` chunks of
        ``batch_size`` — one round trip per chunk instead of one per
        session, the difference between registering 100k sessions in
        seconds versus minutes of virtual time.  The first session of an
        idle deployment starts every stage's cron.  The call pumps the
        event loop until every batch write has landed, so callers can
        clock registration throughput off it directly.
        """
        if count <= 0:
            return []
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        region = region or self.config.primary_region
        ctx = self.region_ctx(region)
        env = self.cloud.env
        was_idle = self.active_sessions == 0
        clients: List[FaaSKeeperClient] = []
        pending: Dict[str, Dict[str, Any]] = {}
        writes = []
        while len(clients) < count:
            session_id = f"s{next(self._session_ids)}"
            queue = self.cloud.fifo_queue(
                f"fk-session-{session_id}", label="sqs",
                max_receive=self.config.follower_max_receive)
            queue.attach(self.follower_fn, batch_limit=FOLLOWER_BATCH)
            self._session_queues[session_id] = queue
            pending[session_id] = {"ephemeral": [], "region": region,
                                   "last_rid": 0}
            client = FaaSKeeperClient(self, session_id, region, queue)
            self.clients[session_id] = client
            self._live_sessions += 1
            clients.append(client)
            if len(pending) >= batch_size or len(clients) == count:
                writes.append(env.process(
                    self.system_store.batch_put(ctx, SYSTEM_SESSIONS, pending),
                    name="connect-many"))
                pending = {}
        if was_idle:
            for stage in self.stages:
                if stage.task is not None:
                    stage.task.start()
        env.run(until=AllOf(env, writes))
        return clients

    def on_session_closed(self, session_id: str, evicted: bool = False) -> None:
        client = self.clients.get(session_id)
        if client is not None:
            # An eviction surfaces as the LOST transition on the client's
            # state machine — the session learns of its death when the
            # evictor's close lands, not on its next failed request.
            client._mark_closed(evicted=evicted)
        queue = self._session_queues.pop(session_id, None)
        if queue is not None:
            # The close envelope has been processed: the queue, its
            # dispatcher and its RNG stream go (a closed session must cost
            # nothing), and what was sent behind the close fails like any
            # request on a closed session.
            for message in self.cloud.delete_queue(queue.name):
                if client is not None:
                    client._fail_request(message, "session_closed")
        if self.active_sessions == 0:
            # Scale-to-zero: with no clients there is nothing to monitor and
            # the only remaining charges are storage retention (Section 5.3.4).
            for stage in self.stages:
                if stage.task is not None:
                    stage.task.stop()

    # ------------------------------------------------------------ notification
    def notify_response(self, response: Response) -> Generator:
        """Function -> client result push (the TCP reply of Section 5.2.2)."""
        client = self.clients.get(response.session)
        yield self.cloud.env.timeout(
            self.cloud.profile.tcp_reply.sample(self._tcp, 0.0))
        if client is not None:
            client._deliver_response(response)
        return None

    def notify_watch_process(self, session: str, watch_id: str,
                             event: WatchedEvent) -> Generator:
        """One watch delivery to one client (spawned by the watch function)."""
        client = self.clients.get(session)
        yield self.cloud.env.timeout(
            self.cloud.profile.tcp_reply.sample(self._tcp, 0.0))
        if client is not None and not client.closed:
            client._deliver_watch(watch_id, event)
        return None

    def invoke_watch_fn(self, triggered: List, txid: int, shard: int = 0,
                        origin: str = "leader"):
        """Free-function invocation of the watch fan-out (leader step ➍,
        or the distributor's watch stage when that pipeline is enabled)."""
        payload = {
            "txid": txid,
            "shard": shard,
            "origin": origin,
            "watches": [
                {
                    "watch_id": t.watch_id,
                    "path": t.path,
                    "event": t.event.value,
                    "sessions": t.sessions,
                }
                for t in triggered
            ],
        }
        if self.config.free_fn_retries <= 0:
            return self.cloud.runtime.invoke_direct(self.watch_fn, payload)
        # AWS retries failed async invocations (up to twice); duplicated
        # deliveries are deduplicated client-side by watch-instance id, so
        # at-least-once invocation yields exactly-once callback effects.
        retrying = self.cloud.env.process(
            self._invoke_watch_retrying(payload), name="watch-invoke-retry")
        retrying.defused()
        return retrying

    def _invoke_watch_retrying(self, payload: Dict[str, Any]) -> Generator:
        runtime = self.cloud.runtime
        last: Optional[BaseException] = None
        for _attempt in range(self.config.free_fn_retries + 1):
            try:
                return (yield from self.watch_fn.run(
                    payload, runtime.profile.invoke_direct.sample(runtime.rng)))
            except Exception as exc:
                last = exc
        raise last

    # ------------------------------------------------------------ heartbeat
    def heartbeat_ping(self, session_id: str) -> Timeout:
        """Ping one client: the timer of its TCP reply, carrying the session
        id as its value.  What the client said is read when the timer
        fires, by :meth:`heartbeat_answered` — a ping is one heap entry,
        not a process."""
        return Timeout(self.cloud.env,
                       self.cloud.profile.tcp_reply.sample(self._tcp, 0.0),
                       session_id)

    def heartbeat_answered(self, session_id: str) -> bool:
        """At reply time: True when the client answered the ping."""
        client = self.clients.get(session_id)
        if client is None or client.closed:
            return False
        if client.alive:
            return True
        # The service observed the client unreachable: the session is in
        # doubt (SUSPENDED) until the eviction lands (LOST) or a later
        # successful round trip heals it.
        client._transition(KeeperState.SUSPENDED)
        return False

    def enqueue_eviction(self, ctx: OpContext, session_id: str) -> Generator:
        """Queue a deregistration request into the session's own queue, so it
        orders after any writes the session already submitted."""
        queue = self._session_queues.get(session_id)
        if queue is None:  # already closed: its queue went with it
            return None
        body = {"session": session_id, "rid": -1, "op": "close_session"}
        try:
            yield from queue.send(ctx, body, group=session_id, size_kb=0.1)
        except NoSuchQueue:
            pass  # closed while the request was on its way: nothing to evict
        return None

    # ------------------------------------------------------------ metrics
    _CACHE_STATS = ("hits", "misses", "invalidations", "evictions", "entries")
    #: The storage/queue half of ``cost_breakdown()``, in its key order:
    #: category -> cost-meter service labels (``s3`` / ``dynamodb`` are
    #: per-service views of the two ``*_store`` rows).  The function half
    #: is one category per stage kind.
    _STORE_COSTS = {"queue": ("sqs",),
                    "system_store": ("dynamodb:system",),
                    "user_store": ("dynamodb:user", "s3"),
                    "s3": ("s3",),
                    "dynamodb": ("dynamodb:system", "dynamodb:user")}

    def _wire_metrics(self) -> None:
        """Attach the registry to everything that already keeps numbers
        elsewhere — client-cache stats, session count and the cost meter —
        as callback gauges sampled at read time, the same device as a
        Prometheus collector, so there is no double bookkeeping; and
        declare the per-function families :meth:`_deploy_stage` hangs each
        stage on (timing probes via the runtime's ``on_segment`` hook,
        function lifecycle counts)."""
        m = self.metrics
        m.histogram(
            "fk_stage_segment_ms",
            "Timing probes recorded by pipeline stages (Figure 10/Table 3)",
            ("fn", "segment"))
        m.gauge("fk_fn_invocations", "Function invocations", ("fn",))
        m.gauge("fk_fn_cold_starts", "Function cold starts", ("fn",))
        m.gauge("fk_fn_failures", "Function invocations that died", ("fn",))

        m.gauge("fk_sessions_active", "Open client sessions").set_function(
            lambda: float(self.active_sessions))
        cache = m.gauge("fk_client_cache",
                        "Aggregated client read-cache counters", ("stat",))
        for stat in self._CACHE_STATS:
            cache.labels(stat=stat).set_function(
                lambda _s=stat: self.client_cache_stats()[_s])

        m.gauge("fk_cost_dollars",
                "Metered dollars by cost category (Figures 9/11)",
                ("category",))
        for category, labels in self._STORE_COSTS.items():
            self._cost_category(category, labels)
        for kind in STAGE_KINDS:
            self._cost_category(kind)

    def _cost_category(self, category: str, labels=None) -> None:
        """``fk_cost_dollars{category=...}``: the meter's dollars under
        ``labels`` — for a stage kind, under ``fn:<name>`` of every
        deployed stage of that kind (0.0 while there is none)."""
        def dollars() -> float:
            wanted = labels or {f"fn:{s.name}" for s in self.stages
                                if s.kind == category}
            return sum(v for k, v in self.cloud.meter.by_service().items()
                       if k in wanted)
        self.metrics.get("fk_cost_dollars").labels(
            category=category).set_function(dollars)

    def metrics_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """The whole registry as one stable, JSON-able dict."""
        return self.metrics.snapshot()

    def metrics_text(self) -> str:
        """Prometheus text exposition of the registry (``/metrics``)."""
        return self.metrics.expose()

    # ------------------------------------------------------------ accounting
    def client_cache_stats(self) -> Dict[str, float]:
        """Aggregate hit/miss/invalidation counters of every session's read
        cache (all zero when ``client_cache_entries`` is 0, the default)."""
        totals = dict.fromkeys(self._CACHE_STATS, 0.0)
        for client in self.clients.values():
            if client._cache is None:
                continue
            for key, value in client._cache.stats().items():
                totals[key] += value
        return totals

    def cost_breakdown(self) -> Dict[str, float]:
        """Metered dollars by category (Figures 9/11 cost bars), plus the
        client read-cache hit/miss counters so cost reports can attribute a
        user-store drop to its hit rate.

        Backed entirely by the metrics registry (the ``fk_cost_dollars``
        and ``fk_client_cache`` callback gauges).  The contract: ``queue +
        system_store + user_store`` plus every stage kind (``follower`` …
        ``outbox``, one per :data:`STAGE_KINDS` entry and per kind in
        ``self.stages``) equals ``cloud.meter.total`` on the dynamodb/S3
        user stores; ``s3`` and ``dynamodb`` are per-service views of the
        same storage dollars.
        """
        cost = self.metrics.get("fk_cost_dollars")
        cache = self.metrics.get("fk_client_cache")
        out: Dict[str, float] = {
            "client_cache_hits": cache.labels(stat="hits").value,
            "client_cache_misses": cache.labels(stat="misses").value,
        }
        for category in dict.fromkeys((*self._STORE_COSTS, *STAGE_KINDS,
                                       *(s.kind for s in self.stages))):
            out[category] = cost.labels(category=category).value
        return out
