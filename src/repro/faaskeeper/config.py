"""Deployment configuration for a FaaSKeeper instance."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import List, Optional

__all__ = ["FaaSKeeperConfig", "UserStoreKind"]


class UserStoreKind:
    """User-data storage backends evaluated in the paper (Figures 8/9/11),
    plus the in-process ``mem`` reference backend: the keys of
    :data:`repro.faaskeeper.userstore.BACKENDS`."""

    S3 = "s3"              # object store only (standard configuration)
    DYNAMODB = "dynamodb"  # key-value only
    HYBRID = "hybrid"      # <=4 kB in key-value, larger data in object
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
    #: Session-plane shards: partitions the heartbeat/eviction sweep — each
    #: of N scheduled sweep functions scans one hash slice of the session
    #: table, ephemeral-first ordering preserved per shard, their crons
    #: staggered across the period.  1 (the default) is the paper's plane:
    #: one sweep function over the whole session table.
    session_plane_shards: int = 1
    #: Number of leader shards: the znode tree is partitioned by top-level
    #: path component, with one FIFO queue + leader function per shard.
    #: 1 reproduces the paper's single-leader pipeline (Algorithm 2) exactly,
    #: and every shard count replicates each committed image (superseded
    #: writes are coalesced only by the distributor stage).
    leader_shards: int = 1
    #: Asynchronous distributor stage: after commit verification the leader
    #: appends a distribution record to per-region FIFO distributor queues
    #: instead of replicating inline, and acknowledges the client at once
    #: (ZooKeeper's ack at commit); distributor instances own the user-store
    #: fan-out, the watch query/consume/fan-out, and the per-region
    #: ``replicated_tx`` visibility watermark read-your-writes rides.  False
    #: (the default) keeps the paper's inline pipeline, whose ack follows
    #: replication into every region, bit-for-bit intact.
    distributor_enabled: bool = False
    #: Not a knob: the ack follows the pipeline (``"on_replicate"`` inline,
    #: ``"on_commit"`` with the distributor).  Accepted only when it names
    #: that value, for callers that still spell it out.
    ack_policy: InitVar[Optional[str]] = None
    #: Durable commit log (the substrate of snapshots, compaction and
    #: cold-start recovery, and the record the outbox streams from): when
    #: enabled the leader appends every committed transaction's replication
    #: writes to a txid-keyed system-store log — one transactional write
    #: per commit, paired with a per-shard log-head watermark — before
    #: replicating or publishing.  False (the default) keeps every
    #: pre-existing pipeline bit-for-bit intact.
    commit_log_enabled: bool = False
    #: Transactional-outbox event streaming: when enabled a publisher
    #: function reads the commit log at its own cursor and streams every
    #: committed change to its subscribers with at-least-once
    #: delivery and per-path txid order (the commit record *is* the event
    #: record, so a change and its outgoing event are atomic).  Off by
    #: default.  Requires ``commit_log_enabled`` (the publisher reads the
    #: log).
    outbox_enabled: bool = False
    #: Client-side read cache: maximum cached node images per session.
    #: 0 (the default) disables the cache entirely, so the paper's read
    #: pipeline — every get_data/get_children is a user-store round trip —
    #: stays bit-for-bit intact.  A cached entry is valid exactly until the
    #: system watch registered alongside it fires (one-shot watches make
    #: client caching sound, as in ZooKeeper).
    client_cache_entries: int = 0

    def __post_init__(self, ack_policy: Optional[str]) -> None:
        # The backend table is the one list of kinds (the import is
        # deferred — userstore imports this module at load time).
        from .userstore import BACKENDS
        if self.user_store not in BACKENDS:
            raise ValueError(f"unknown user store {self.user_store!r} "
                             f"(known: {', '.join(sorted(BACKENDS))})")
        if not self.regions:
            raise ValueError("need at least one region")
        if len(set(self.regions)) != len(self.regions):
            raise ValueError(f"duplicate regions in {self.regions}")
        for name in ("function_memory_mb", "cpu_alloc"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.arch not in ("x86", "arm"):
            raise ValueError(f"unknown arch {self.arch!r}")
        for name, low in (("leader_shards", 1), ("session_plane_shards", 1),
                          ("client_cache_entries", 0)):
            if getattr(self, name) < low:
                raise ValueError(
                    f"{name} must be >= {low}, got {getattr(self, name)}")
        derived = "on_commit" if self.distributor_enabled else "on_replicate"
        if ack_policy not in (None, derived):
            raise ValueError(
                f"ack_policy={ack_policy!r}: with distributor_enabled="
                f"{self.distributor_enabled} the ack is {derived!r}")
        if self.outbox_enabled and not self.commit_log_enabled:
            raise ValueError(
                "outbox_enabled=True requires commit_log_enabled=True: the "
                "publisher streams events out of the commit log")

    @property
    def client_cache_enabled(self) -> bool:
        return self.client_cache_entries > 0

    @property
    def primary_region(self) -> str:
        return self.regions[0]
