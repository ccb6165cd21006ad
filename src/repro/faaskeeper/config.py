"""Deployment configuration for a FaaSKeeper instance."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, List, Optional

__all__ = ["FaaSKeeperConfig", "UserStoreKind"]


class UserStoreKind:
    """User-data storage backends evaluated in the paper (Figures 8/9/11),
    plus the in-process ``mem`` reference backend.  ``user_store`` accepts
    either a bare kind or a registry URI (``"hybrid://?threshold_kb=8"``);
    see :mod:`repro.faaskeeper.userstore`."""

    S3 = "s3"              # object store only (standard configuration)
    DYNAMODB = "dynamodb"  # key-value only
    HYBRID = "hybrid"      # <=threshold in key-value, larger data in object
    REDIS = "redis"        # user-managed in-memory cache
    MEM = "mem"            # in-process reference backend (zero billing)


@dataclass
class FaaSKeeperConfig:
    """Knobs of one deployment, defaulting to the paper's evaluation setup:
    us-east-1, 2048 MB functions, S3 user store."""

    user_store: str = UserStoreKind.S3
    function_memory_mb: int = 2048
    arch: str = "x86"                     # "x86" | "arm"
    cpu_alloc: float = 1.0                # GCP: vCPU fraction
    regions: List[str] = field(default_factory=lambda: ["us-east-1"])
    heartbeat_period_ms: float = 60_000.0  # highest AWS cron frequency (5.3.3)
    #: Session-plane shards: partitions the heartbeat/eviction sweep — each
    #: of N scheduled sweep functions scans one hash slice of the session
    #: table, ephemeral-first ordering preserved per shard, their crons
    #: staggered across the period.  1 (the default) is the paper's plane:
    #: one sweep function over the whole session table.
    session_plane_shards: int = 1
    follower_max_receive: Optional[int] = 5
    #: Number of leader shards: the znode tree is partitioned by top-level
    #: path component, with one FIFO queue + leader function per shard.
    #: 1 reproduces the paper's single-leader pipeline (Algorithm 2) exactly.
    leader_shards: int = 1
    #: Coalesce superseded user-store writes inside one leader delivery
    #: batch (bounded by the SQS ``fifo_batch_limit`` calibration).
    #: None = auto: enabled for sharded deployments, off for the paper's
    #: single-leader configuration so its published latencies stay intact.
    leader_coalesce: Optional[bool] = None
    #: Asynchronous distributor stage: after commit verification the leader
    #: appends a distribution record to per-region FIFO distributor queues
    #: instead of replicating inline; distributor instances own the
    #: user-store fan-out, the watch query/consume/fan-out, and the
    #: per-region ``replicated_tx`` visibility watermark.  False (the
    #: default) keeps the paper's inline pipeline bit-for-bit intact.
    distributor_enabled: bool = False
    #: When the client's write acknowledgement is sent:
    #: ``"on_replicate"`` (default) — after the write is visible in every
    #: region's user store (the paper's semantics); ``"on_commit"`` — right
    #: after commit verification, before distribution (requires the
    #: distributor; read-your-writes then rides the visibility watermark).
    ack_policy: str = "on_replicate"
    #: Durable commit log (the substrate of snapshots, compaction and
    #: cold-start recovery, and the record the outbox streams from): when
    #: enabled the leader appends every committed transaction's replication
    #: writes to a txid-keyed system-store log — one transactional write
    #: per commit, paired with a per-shard log-head watermark — before
    #: replicating or publishing.  False (the default) keeps every
    #: pre-existing pipeline bit-for-bit intact.
    commit_log_enabled: bool = False
    #: Period of the scheduled snapshot function (fuzzy snapshot + log
    #: compaction, like the GC sweep).  0 (the default) = manual snapshots
    #: only, via ``service.snapshots``.  Requires ``commit_log_enabled``.
    #: Compaction truncates up to the slowest cursor: the snapshot floor,
    #: every region's ``replicated_tx`` and the outbox's published mark.
    snapshot_auto_ms: float = 0.0
    #: Async free-function invocation retries (the watch fan-out): AWS
    #: retries failed async invocations up to twice.  0 (the default) keeps
    #: the paper's single-attempt behaviour — and its fingerprints — exact;
    #: the chaos suite runs with 2 so a crashed fan-out re-delivers
    #: (duplicate deliveries are deduplicated client-side by instance id).
    free_fn_retries: int = 0
    #: Transactional-outbox event streaming: when enabled a publisher
    #: function reads the commit log at its own cursor and streams every
    #: committed change to the configured sinks with at-least-once
    #: delivery and per-path txid order (the commit record *is* the event
    #: record, so a change and its outgoing event are atomic).  ``None``
    #: (the default) means off — unless the ``FK_FORCE_OUTBOX=1``
    #: environment override is set (the CI matrix leg that runs the whole
    #: suite with the outbox on; it enables the commit log too); pass an
    #: explicit ``False`` to pin it off regardless.  Requires
    #: ``commit_log_enabled`` (the publisher reads the log).
    outbox_enabled: Optional[bool] = None
    #: Event sinks the publisher fans out to: specs understood by
    #: :func:`repro.faaskeeper.outbox.make_sink` (``"inproc"``,
    #: ``"file:<path>"``, ``"webhook:<url>"``, a ``(scheme, kwargs)``
    #: pair, or a ready :class:`~repro.faaskeeper.outbox.Sink` instance).
    outbox_sinks: List[Any] = field(default_factory=lambda: ["inproc"])
    #: Maximum txids one publisher pass moves its cursor by.
    outbox_batch: int = 25
    #: Period of the scheduled publisher function (suspended at
    #: scale-to-zero, like the heartbeat).  0 = manual drains only, via
    #: ``service.outbox.drain()``.
    outbox_publish_ms: float = 1_000.0
    #: Client-side read cache: maximum cached node images per session.
    #: 0 (the default) disables the cache entirely, so the paper's read
    #: pipeline — every get_data/get_children is a user-store round trip —
    #: stays bit-for-bit intact.  A cached entry is valid exactly until the
    #: system watch registered alongside it fires (one-shot watches make
    #: client caching sound, as in ZooKeeper).
    client_cache_entries: int = 0
    #: Seeded transient-fault injection on every storage service the
    #: deployment owns (throttle / timeout / connection reset / partial
    #: write): the per-operation fault probability, 0 = no schedule armed.
    #: ``None`` (the default) means 0 — unless the ``FK_STORAGE_FAULTS=1``
    #: environment override is set (the CI leg that runs the whole tier-1
    #: suite under a 5 % schedule); pass an explicit ``0.0`` to pin faults
    #: off regardless — the escape hatch the bit-for-bit fingerprint gates
    #: use.  Every round trip rides the retry/breaker proxy
    #: (:mod:`repro.faaskeeper.retry`) either way.
    storage_fault_rate: Optional[float] = None

    def __post_init__(self) -> None:
        # The backend registry is the one list of schemes (the import is
        # deferred — userstore imports this module at load time).
        from .userstore import BACKEND_REGISTRY
        if str(self.user_store).split("://", 1)[0] not in BACKEND_REGISTRY:
            raise ValueError(f"unknown user store {self.user_store!r}")
        if not self.regions:
            raise ValueError("need at least one region")
        if self.arch not in ("x86", "arm"):
            raise ValueError(f"unknown arch {self.arch!r}")
        if self.leader_shards < 1:
            raise ValueError(f"leader_shards must be >= 1, got {self.leader_shards}")
        if self.session_plane_shards < 1:
            raise ValueError(
                f"session_plane_shards must be >= 1, "
                f"got {self.session_plane_shards}")
        if self.client_cache_entries < 0:
            raise ValueError(
                f"client_cache_entries must be >= 0, got {self.client_cache_entries}")
        if self.ack_policy not in ("on_replicate", "on_commit"):
            raise ValueError(f"unknown ack_policy {self.ack_policy!r}")
        if self.ack_policy == "on_commit" and not self.distributor_enabled:
            raise ValueError(
                "ack_policy='on_commit' requires distributor_enabled=True: "
                "without a distributor nothing replicates after the ack")
        if self.snapshot_auto_ms < 0:
            raise ValueError(
                f"snapshot_auto_ms must be >= 0, got {self.snapshot_auto_ms}")
        if self.snapshot_auto_ms > 0 and not self.commit_log_enabled:
            raise ValueError(
                "snapshot_auto_ms > 0 requires commit_log_enabled=True: "
                "there is nothing to snapshot without a commit log")
        if self.free_fn_retries < 0:
            raise ValueError(
                f"free_fn_retries must be >= 0, got {self.free_fn_retries}")
        if self.outbox_enabled is None:
            # CI override: one matrix leg runs the whole tier-1 suite with
            # the outbox (and therefore the commit log) on.  Explicit
            # outbox_enabled=False pins a deployment off regardless — the
            # escape hatch the bit-for-bit fingerprint gates use.
            forced = os.environ.get("FK_FORCE_OUTBOX", "") == "1"
            self.outbox_enabled = forced
            if forced:
                self.commit_log_enabled = True
        if self.outbox_enabled and not self.commit_log_enabled:
            raise ValueError(
                "outbox_enabled=True requires commit_log_enabled=True: the "
                "publisher streams events out of the commit log")
        if self.outbox_batch < 1:
            raise ValueError(
                f"outbox_batch must be >= 1, got {self.outbox_batch}")
        if self.outbox_publish_ms < 0:
            raise ValueError(
                f"outbox_publish_ms must be >= 0, got {self.outbox_publish_ms}")
        if self.outbox_enabled and not self.outbox_sinks:
            raise ValueError("outbox_enabled=True needs at least one sink")
        if self.storage_fault_rate is None:
            # CI override: one leg runs the whole tier-1 suite with a
            # seeded fault schedule armed (mirrors FK_FORCE_OUTBOX).
            forced = os.environ.get("FK_STORAGE_FAULTS", "") == "1"
            self.storage_fault_rate = 0.05 if forced else 0.0
        if not 0.0 <= self.storage_fault_rate <= 1.0:
            raise ValueError(
                f"storage_fault_rate must be in [0, 1], "
                f"got {self.storage_fault_rate}")

    @property
    def client_cache_enabled(self) -> bool:
        return self.client_cache_entries > 0

    @property
    def coalesce_enabled(self) -> bool:
        if self.leader_coalesce is None:
            return self.leader_shards > 1
        return self.leader_coalesce

    @property
    def primary_region(self) -> str:
        return self.regions[0]
