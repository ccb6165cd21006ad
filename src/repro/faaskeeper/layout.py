"""Storage layout: system tables, user stores, node item schemas.

FaaSKeeper distinguishes **system storage** (key-value tables used by the
functions to coordinate: node index with locks and pending transactions,
sessions, watches, epoch counters) from **user storage** (read-optimized
replicas of node data, one per region) — Section 3.3.

System node item schema (table ``SYSTEM_NODES``, key = path)::

    {
      "exists":        bool,      # tombstones keep the txid index alive
      "data_len":      int,       # size of the node data (bytes)
      "version":       int,       # data version
      "cversion":      int,       # child-list version
      "created_tx":    int,
      "modified_tx":   int,
      "children":      [name...],
      "cseq":          int,       # sequential-node counter
      "ephemeral_owner": str|None,
      "transactions":  [txid...], # pending, in commit order (leader pops)
      "applied_tx":    int,       # leader's replication watermark (dedup)
      "lock":          {"ts": float},   # timed-lock attribute
    }

A delete leaves a tombstone (``exists`` false) that the GC stage removes
``gc.TOMBSTONE_GRACE_MS`` after the leader pops the delete.  An item
holding only a lock (a path being created, or one a failed write locked)
goes with the lock's release.

System items deliberately hold **metadata only** — the node data itself
travels inside the durable queue message to the leader and lands in user
storage.  This keeps every lock/commit operation size-independent (Table 3
shows 250 kB commits at ~8 ms) and keeps system-storage write costs at one
1 kB write unit per operation, as the paper's cost model assumes.

User node image (any backend)::

    {
      "path", "data", "version", "cversion", "created_tx", "modified_tx",
      "children", "ephemeral_owner", "acl" (only when set),
      "epoch": [watch-event ids pending when this image was written],
    }
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional

__all__ = [
    "SYSTEM_NODES",
    "SYSTEM_STATE",
    "SYSTEM_SESSIONS",
    "SYSTEM_WATCHES",
    "SYSTEM_LOG",
    "SYSTEM_SNAPSHOT",
    "USER_TABLE",
    "USER_BUCKET",
    "epoch_key",
    "replicated_key",
    "log_key",
    "LOG_HEAD_KEY",
    "SNAPSHOT_META_KEY",
    "OUTBOX_PUBLISHED_KEY",
    "OUTBOX_DEAD_LETTER_KEY",
    "new_system_node",
    "user_image_from_system",
    "top_component",
    "shard_of_path",
]

SYSTEM_NODES = "fk-system-nodes"
SYSTEM_STATE = "fk-system-state"
SYSTEM_SESSIONS = "fk-system-sessions"
SYSTEM_WATCHES = "fk-system-watches"
#: Durable commit log (``commit_log_enabled``): one item per committed
#: transaction, key = zero-padded txid, value = ``{"txid", "shard",
#: "session", "ts", "writes"}``.  The one commit record: the snapshot fold,
#: the outbox publisher and compaction/recovery read it at their own cursors.
SYSTEM_LOG = "fk-system-log"
#: Snapshot table (fuzzy checkpoint of the log): key = path, value =
#: the newest folded user image and the txid that produced it.
SYSTEM_SNAPSHOT = "fk-system-snapshot"
USER_TABLE = "fk-user-nodes"
USER_BUCKET = "fk-user-data"

#: System-state key of the per-shard log-head watermark item: attribute
#: ``s<shard>`` holds the newest txid that shard has appended to the log.
#: Updated in the same storage transaction as the log append, so every
#: committed txid at or below a shard's head has a log record.
LOG_HEAD_KEY = "log:head"
#: System-state key of the snapshot metadata item ``{"txid", "seq",
#: "compacted"}``: the snapshot floor (state at ``txid`` is fully folded
#: into the snapshot table), the fold generation, and the newest txid
#: compaction has truncated the log to.
SNAPSHOT_META_KEY = "snapshot:meta"
#: System-state key of the outbox publisher's durable cursor ``{"txid"}``:
#: the events of every log record at or below it have been delivered to
#: (or dead-lettered at) every sink.  Advanced *after* sink
#: delivery, so a publisher crash re-delivers — at-least-once — and read
#: by compaction, which never truncates the log above it.
OUTBOX_PUBLISHED_KEY = "outbox:published"
#: System-state key of the durable dead-letter list ``{"items": [...]}``:
#: events a sink definitively rejected after the retry budget.
OUTBOX_DEAD_LETTER_KEY = "outbox:dead-letter"


def log_key(txid: int) -> str:
    """Commit-log item key: zero-padded so lexicographic == numeric order."""
    return f"{txid:012d}"


def epoch_key(region: str) -> str:
    """System-state key of the region-wide epoch counter (Section 3.4)."""
    return f"epoch:{region}"


def replicated_key(region: str) -> str:
    """System-state key of a region's ``replicated_tx`` visibility
    watermark: the newest transaction id whose user-store write has landed
    in that region (maintained by the distributor stage)."""
    return f"replicated:{region}"


def top_component(path: str) -> str:
    """First component of an absolute znode path ('' for the root)."""
    end = path.find("/", 1)
    return path[1:] if end < 0 else path[1:end]


def shard_of_path(path: str, num_shards: int) -> int:
    """Leader shard owning ``path``: stable hash of the top-level component.

    The znode tree is partitioned by subtree: every node below ``/a`` maps
    to the same shard, so the two system items a create/delete touches
    (node + parent) live on one leader and commit through one FIFO queue.
    The only cross-shard parent is the root itself — replication of ``/``
    is ordered by the per-path pending-transaction gate in the leader.
    ``crc32`` keeps the mapping stable across processes and Python builds
    (the builtin ``hash`` is salted per interpreter run).
    """
    if num_shards <= 1:
        return 0
    comp = top_component(path)
    if not comp:
        return 0
    return zlib.crc32(comp.encode()) % num_shards


def new_system_node(
    data_len: int,
    created_tx: int,
    ephemeral_owner: Optional[str] = None,
) -> Dict[str, Any]:
    """Fresh system-node attribute map (before the txid commit fields)."""
    return {
        "exists": True,
        "data_len": data_len,
        "version": 0,
        "cversion": 0,
        "created_tx": created_tx,
        "modified_tx": created_tx,
        "children": [],
        "cseq": 0,
        "ephemeral_owner": ephemeral_owner,
        "transactions": [],
        "applied_tx": 0,
    }


def user_image_from_system(path: str, node: Dict[str, Any]) -> Dict[str, Any]:
    """Project a system node onto the user-visible image: drops locks and
    pending-transaction bookkeeping, keeps the node's ACL (reads are
    checked against it at the storage boundary, Section 4.4).  System
    nodes hold no data, so the image's data is empty until the writer
    attaches what was written."""
    image = {
        "path": path,
        "data": b"",
        "version": node.get("version", 0),
        "cversion": node.get("cversion", 0),
        "created_tx": node.get("created_tx", 0),
        "modified_tx": node.get("modified_tx", 0),
        "children": list(node.get("children", [])),
        "ephemeral_owner": node.get("ephemeral_owner"),
    }
    if node.get("acl"):
        image["acl"] = dict(node["acl"])
    return image
