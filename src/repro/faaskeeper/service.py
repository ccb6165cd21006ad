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

``connect()`` returns a :class:`~repro.faaskeeper.client.FaaSKeeperClient`;
``connect_many(n)`` returns :class:`SessionHandles`, whose element makes its
session's client when it is first read.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from ..cloud.cloud import Cloud
from ..cloud.context import OpContext
from ..cloud.errors import REDELIVERED, NoSuchQueue
from ..cloud.queues import SharedSequence
from ..primitives import TimedLock
from ..sim.kernel import AllOf
from .client import FaaSKeeperClient
from .config import FaaSKeeperConfig
from .distributor import DistributionStage, GateBoard
from .follower import (
    FOLLOWER_BATCH,
    FOLLOWER_MAX_RECEIVE,
    LEADER_BATCH,
    LOCK_MAX_HOLD_MS,
    FollowerLogic,
)
from .gc import TOMBSTONE_GRACE_MS, GarbageCollectorLogic
from .heartbeat import HEARTBEAT_PERIOD_MS, HeartbeatLogic
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
from .retry import KV_OPS, USER_OPS, RetryingStore
from .snapshot import SnapshotManager
from .watch_fn import WatchFanoutLogic
from .watches import EpochLedger, WatchRegistry

__all__ = ["FaaSKeeperService", "SessionHandles", "Stage", "STAGE_KINDS"]

#: Stage kinds, in ``cost_breakdown()``'s key order.  A kind is the unit of
#: cost attribution (one ``fk_cost_dollars`` category, summed over the
#: kind's shards/regions) and of crash-window arming (``ChaosMonkey.STAGES``).
STAGE_KINDS = ("follower", "leader", "distributor", "watch", "heartbeat",
               "gc", "snapshot", "outbox")

#: AWS retries a failed async invocation (the watch fan-out) twice.
WATCH_FN_RETRIES = 2


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


class SessionHandles(Sequence):
    """What :meth:`FaaSKeeperService.connect_many` returns: one read-only
    element per registered session, in registration order.

    An element holds its session's name until it is first read.  That read
    makes the session's :class:`~repro.faaskeeper.client.FaaSKeeperClient`
    and keeps it in the element's place, so the same handle comes back for
    the rest of the run, also after a close has dropped it from
    ``service.clients``.  Iterating, unpacking or ``list()`` reads (and so
    makes) every handle; a harness that drives a few sessions of many
    indexes those few.
    """

    __slots__ = ("_service", "_region", "_slots")

    def __init__(self, service: "FaaSKeeperService", region: str,
                 names: List[str]) -> None:
        self._service = service
        self._region = region
        self._slots: List[Any] = names  # a name until taken, then its client

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._slots)))]
        handle = self._slots[index]
        if handle.__class__ is not str:
            return handle
        # Free on the virtual clock: making a client draws no RNG and
        # schedules nothing.
        client = FaaSKeeperClient(self._service, handle, self._region)
        self._slots[index] = self._service.clients[handle] = client
        return client


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
        # Every storage round trip below goes through the one retry proxy.
        # Its jitter stream is created lazily on the first actual retry, so
        # fault-free runs keep the raw store's RNG draw sequence — and their
        # fingerprints — bit-for-bit.
        self.system_store = RetryingStore(
            cloud.kv("dynamodb:system", region=config.primary_region),
            "system", KV_OPS, cloud.env,
            lambda: cloud.rng.stream("storage-retry:system"), self.metrics)
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
            lambda: cloud.rng.stream("storage-retry:user"), self.metrics)
        #: Fault injectors armed on this deployment (empty = clean run).
        self.storage_injectors: List[Any] = []

        # --- sessions ----------------------------------------------------------
        self._session_ids = itertools.count(1)
        #: Session id -> its client; None until a caller takes the handle
        #: (:class:`SessionHandles`).  A None entry is an open, alive,
        #: CONNECTED session that is owed nothing.
        self.clients: Dict[str, Optional[FaaSKeeperClient]] = {}
        #: Sessions in ``self.clients`` not yet closed: +1 where one is
        #: registered, -1 on its client's first ``_mark_closed``.
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
        # ids globally comparable (MRD tracking, applied_tx watermarks); it
        # also stamps each push with its session's fence.
        txids = SharedSequence(fence_key="session") if shards > 1 else None
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
        plane, period = config.session_plane_shards, HEARTBEAT_PERIOD_MS
        sweeps = [
            deploy("fk-heartbeat" + _suffix(i), "heartbeat",
                   HeartbeatLogic(self, shard=i, shards=plane),
                   period_ms=period, offset_ms=i * period / plane)
            for i in range(plane)
        ]
        self.heartbeat_fns = [stage.fn for stage in sweeps]
        self.heartbeat_tasks = [stage.task for stage in sweeps]
        # Fed by the leaders with the tombstones they pop, each message
        # held back for the grace period.
        gc = deploy("fk-gc", "gc", GarbageCollectorLogic(self),
                    queue="fk-gc-q", delay_ms=TOMBSTONE_GRACE_MS)
        self.gc_fn, self.gc_queue = gc.fn, gc.queue

        # Distributor stage (None = the paper's inline pipeline): one
        # function + queue per region.
        self.distribution: Optional[DistributionStage] = (
            DistributionStage(self) if config.distributor_enabled else None)
        #: Per-region replication visibility (None without the distributor:
        #: the leader's inline replication makes acked writes visible).
        self.visibility_board = (self.distribution.visibility
                                 if self.distribution else None)

        # Durability: commit log + fuzzy snapshots (opt-in).  Gated on
        # commit_log_enabled so the default deployments keep their
        # deployment-time RNG draws — and therefore their latency/cost
        # fingerprints — bit-for-bit.
        self.snapshots: Optional[SnapshotManager] = None
        if config.commit_log_enabled:
            for table in (SYSTEM_LOG, SYSTEM_SNAPSHOT):
                self.system_store.create_table(table)
            self.snapshots = SnapshotManager(self)

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
                      delay_ms: float = 0.0,
                      period_ms: float = 0.0, offset_ms: float = 0.0
                      ) -> Stage:
        """The one place a stage comes into being: deploy ``logic.handler``
        as function ``name``, give it its trigger — FIFO queue ``queue``
        (redelivering forever, each message visible ``delay_ms`` after it
        is sent) drained ``batch`` messages at a time, and/or a cron every
        ``period_ms`` (0 = none), suspended while no session is open —
        append it to ``self.stages`` and hang its metrics on the registry:
        the ``on_segment`` probe (its histogram, the probes' one record),
        lifecycle gauges, and the ``fk_cost_dollars`` category of its kind."""
        config, cloud, m = self.config, self.cloud, self.metrics
        fn = cloud.deploy_function(
            name, logic.handler, memory_mb=config.function_memory_mb,
            arch=config.arch, cpu_alloc=config.cpu_alloc,
            region=region or config.primary_region)
        stage = Stage(name, kind, logic, fn)
        if queue is not None:
            stage.queue = cloud.fifo_queue(queue, label="sqs",
                                           max_receive=None,
                                           seq_source=seq_source,
                                           delay_ms=delay_ms)
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

        The one way to arm storage faults: like a crash plan, the schedule
        is armed on the running deployment, right after deploy or mid-run.
        One :class:`~repro.cloud.faults.FaultInjector` per fault point (the
        system key-value store behind its proxy plus whatever endpoints the
        user backend reports), each driven by its own named RNG stream
        (``storage-faults:<label>@<region>``), so the schedule replays
        exactly for a given sim seed and is independent of every other
        stream.  A re-arm sets each injector's rate (``arm``): its stream
        and ``fk_storage_faults_injected`` carry on where they were.
        """
        from ..cloud.faults import FAULT_KINDS, FaultInjector

        injectors = self.storage_injectors
        for injector in injectors:
            injector.arm(rate)
        if injectors:
            return injectors
        for point in (self.system_store.inner,
                      *self.user_store.inner.fault_points()):
            stream = self.cloud.rng.stream(
                f"storage-faults:{point.service_label}@{point.region}")
            point.faults = FaultInjector(stream, rate)
            injectors.append(point.faults)
        injected = self.metrics.gauge(
            "fk_storage_faults_injected",
            "Transient storage faults injected, by kind", ("kind",))
        for kind in FAULT_KINDS:
            injected.labels(kind=kind).set_function(
                lambda k=kind: float(sum(i.injected[k]
                                         for i in self.storage_injectors)))
        return injectors

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
            image = dict(user_image_from_system("/", root), epoch=[])
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
        if region not in self._region_ctx:
            self._region_ctx[region] = OpContext(region=region)
        return self._region_ctx[region]

    def connect(self, region: Optional[str] = None) -> FaaSKeeperClient:
        """Open one session: a session record and a client."""
        return self.connect_many(1, region)[0]

    def connect_many(self, count: int, region: Optional[str] = None,
                     batch_size: int = 25) -> Sequence[FaaSKeeperClient]:
        """Open ``count`` sessions: the one registration path.

        Registration stores names and session records only.  The returned
        :class:`SessionHandles` makes a session's client when its element
        is first read, so a session nobody takes costs its name and its
        record; its own FIFO queue (feeding the follower) comes later
        still, from :meth:`_open_queue`, when the session first needs one.
        The session records land in ``BatchWriteItem``
        chunks of ``batch_size`` — one round trip per chunk instead of one
        per session, the difference between registering 100k sessions in
        seconds versus minutes of virtual time.  The first session of an
        idle deployment starts every stage's cron.  The call pumps the
        event loop until every batch write has landed, so callers can
        clock registration throughput off it directly; a process uses
        :meth:`co_connect_many` instead.
        """
        clients, landed = self._register_sessions(count, region, batch_size)
        if landed is not None:
            self.cloud.env.run(until=landed)
        return clients

    def co_connect_many(self, count: int, region: Optional[str] = None,
                        batch_size: int = 25) -> Generator:
        """:meth:`connect_many` for a simulation process."""
        clients, landed = self._register_sessions(count, region, batch_size)
        if landed is not None:
            yield landed
        return clients

    def co_connect(self, region: Optional[str] = None) -> Generator:
        """:meth:`connect` for a simulation process."""
        return (yield from self.co_connect_many(1, region))[0]

    def _register_sessions(self, count: int, region: Optional[str],
                           batch_size: int) -> tuple:
        """Name ``count`` sessions and start their session-record writes;
        returns their :class:`SessionHandles` and the event of every write
        landing (None when there is nothing to register)."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if count <= 0:
            return [], None
        region = region or self.config.primary_region
        ctx = self.region_ctx(region)
        env = self.cloud.env
        was_idle = self.active_sessions == 0
        names: List[str] = []
        pending: Dict[str, Dict[str, Any]] = {}
        writes = []
        # One record for all: each batch stores one image, copied on write.
        record = {"ephemeral": [], "region": region, "last_rid": 0}
        while len(names) < count:
            session_id = f"s{next(self._session_ids)}"
            pending[session_id] = record
            self.clients[session_id] = None  # no handle until one is taken
            names.append(session_id)
            if len(pending) >= batch_size or len(names) == count:
                writes.append(env.process(
                    self.system_store.batch_put(ctx, SYSTEM_SESSIONS, pending),
                    name="connect-many"))
                pending = {}
        self._live_sessions += count
        if was_idle:
            for stage in self.stages:
                if stage.task is not None:
                    stage.task.start()
        return SessionHandles(self, region, names), AllOf(env, writes)

    def _open_queue(self, client: FaaSKeeperClient):
        """Make ``client``'s session queue, feeding the follower: read once,
        by its first queued request or its eviction.  Free on the virtual
        clock (no latency, no charge, no event); a closed session gets none."""
        name = f"fk-session-{client.session_id}"
        if client.closed:
            raise NoSuchQueue(name)
        queue = self.cloud.fifo_queue(
            name, label="sqs", max_receive=FOLLOWER_MAX_RECEIVE)
        queue.attach(self.follower_fn, batch_limit=FOLLOWER_BATCH)
        queue.on_drop = client._on_drop
        self._session_queues[client.session_id] = queue
        return queue

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
        yield self.cloud.profile.tcp_reply.sample(self._tcp, 0.0)
        if client is not None:
            client._deliver_response(response)
        return None

    def notify_watch_process(self, session: str, watch_id: str,
                             event: WatchedEvent) -> Generator:
        """One watch delivery to one client (spawned by the watch function)."""
        client = self.clients.get(session)
        yield self.cloud.profile.tcp_reply.sample(self._tcp, 0.0)
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
        # drawn now, where ``invoke_direct`` draws it; a retry draws later
        runtime = self.cloud.runtime
        latency = runtime.profile.invoke_direct.sample(runtime.rng)
        invoking = self.cloud.env.process(self._invoke_watch(payload, latency))
        invoking.defused()
        return invoking

    def _invoke_watch(self, payload: Dict[str, Any], latency: float
                      ) -> Generator:
        """Retried deliveries are deduplicated client-side by watch-instance
        id: at-least-once invocation, exactly-once callback effects."""
        runtime = self.cloud.runtime
        for attempt in range(WATCH_FN_RETRIES + 1):
            try:
                return (yield from self.watch_fn.run(payload, latency))
            except REDELIVERED:
                if attempt == WATCH_FN_RETRIES:
                    raise
            latency = runtime.profile.invoke_direct.sample(runtime.rng)

    # ------------------------------------------------------------ heartbeat
    def heartbeat_reply_delay(self, session_id: str) -> float:
        """Ping one client: how long its TCP reply takes.  What the client
        said is read at that instant, by :meth:`heartbeat_answered`."""
        return self.cloud.profile.tcp_reply.sample(self._tcp, 0.0)

    def heartbeat_answered(self, session_id: str) -> bool:
        """At reply time: True when the client answered the ping.  A
        session whose handle nobody took is alive and CONNECTED."""
        client = self.clients.get(session_id)
        if client is None:
            return session_id in self.clients  # untaken, or gone
        if client.closed:
            return False
        if client.alive:
            if client._state is not KeeperState.CONNECTED:
                client._transition(KeeperState.CONNECTED)  # an answered ping heals a SUSPENDED session
            return True
        # The service observed the client unreachable: the session is in
        # doubt (SUSPENDED) until the eviction lands (LOST) or a later
        # successful round trip heals it.
        client._transition(KeeperState.SUSPENDED)
        return False

    def enqueue_eviction(self, ctx: OpContext, session_id: str) -> Generator:
        """Queue a deregistration request into the session's own queue, so it
        orders after any writes the session already submitted."""
        client = self.clients.get(session_id)
        if client is None or client.closed:  # nothing left to evict
            return None
        body = {"session": session_id, "rid": -1, "op": "close_session"}
        try:
            yield from client.queue.send(ctx, body, size_kb=0.1)
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
        stage on (timing probes via ``on_segment``, bucketed here and kept
        nowhere else; function lifecycle counts)."""
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
            if client is None or client._cache is None:
                continue  # untaken, or cache off
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
