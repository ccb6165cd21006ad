"""Commit log, fuzzy snapshots and txid-bounded compaction (ZooKeeper's
durability design — Hunt et al., ATC'10 — on the FaaSKeeper storage
layout).

Without this module the deployment's durability story ends at the system
store: node *metadata* is durable, but the node data only exists inside
queue messages in flight and in the per-region user stores — a region
whose replica is lost can only be rebuilt from nothing.  With
``commit_log_enabled`` there is **one commit record per transaction and
many cursors over it**, as in ZooKeeper's single transaction log:

* **append** — the leader appends every committed transaction's
  replication writes (full node images, parent metadata updates,
  deletions), its session and commit timestamp to a txid-keyed system
  table *before* replicating or publishing, in the same storage
  transaction as a per-shard ``log-head`` watermark.  Within a shard the
  FIFO queue delivers txids in order, so every committed txid at or below
  a shard's head provably has a log record — the invariant every
  reader's floor (:func:`log_bounds`) rests on.  The leader wakes the
  consumers after each batch (:meth:`SnapshotManager.logged`).

* **fold** (cursor ``snapshot:meta.txid``) — :meth:`take_snapshot` folds
  the log suffix above the previous floor into a per-path checkpoint
  table, concurrent with commits (it never blocks the write pipeline and
  bills proportional to the *suffix*, not the tree, the session count or
  the watch count: it reads no table whole).  The new floor is published
  only after the fold completes; a crash mid-fold leaves some checkpoint
  items ahead of it — ZooKeeper's fuzzy-snapshot state — and the re-fold
  is idempotent because every write is guarded by the item's landed txid.
  Only node images are folded.  ZooKeeper snapshots its sessions because
  they live in server memory; here the session, watch and node-metadata
  tables are themselves the durable record (the paper's §3.3), so a
  snapshot has nothing of theirs to copy.

* **publish** (cursor ``outbox:published``) — the outbox publisher
  (:mod:`repro.faaskeeper.outbox`) reads the same records through
  :meth:`read_suffix` and streams their events to the sinks.

* **compact** (cursor ``snapshot:meta.compacted``) — :meth:`compact` is
  the one place the log is truncated, up to ``min(snapshot floor, every
  region's replicated_tx, outbox:published)``: every other cursor pins
  the log.  A region that crashed mid-drain replays ``(replicated_tx,
  head]`` without reloading the snapshot; a record no sink has seen yet
  is never eaten.  ``fk-snapshot`` folds and compacts every
  :data:`SNAPSHOT_EVERY` txids.

Cold start (:meth:`recover_region`, the one recovery path) = load the
snapshot table into the region's user store + replay the log suffix above
the floor; recovery time is bounded by snapshot size + suffix length,
never by total log length (``bench_recovery.py`` measures exactly this).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..cloud.context import OpContext
from ..cloud.errors import ConditionFailed
from ..cloud.expressions import Attr, Set, item_exists
from .distributor import advance_watermark, stamped_image, write_user_image
from .layout import (
    LOG_HEAD_KEY,
    OUTBOX_PUBLISHED_KEY,
    SNAPSHOT_META_KEY,
    SYSTEM_LOG,
    SYSTEM_SNAPSHOT,
    SYSTEM_STATE,
    log_key,
    replicated_key,
)

__all__ = ["SnapshotManager", "SNAPSHOT_EVERY", "fold_write", "log_bounds"]

#: ZooKeeper's ``snapCount``: a fuzzy snapshot plus compaction runs every
#: this many txids, fed by the leader that logs (or burns) each multiple.
SNAPSHOT_EVERY = 256

def log_bounds(heads: Optional[Dict[str, int]],
               issued: List[int]) -> Tuple[int, int]:
    """``(floor, top)`` of the commit log from its per-shard head item and
    each shard's issued mark (its leader queue's newest txid, read after
    the heads).  At or below ``floor`` every committed txid provably has
    its record: a shard with a txid in flight (head below its mark) bounds
    it at its head; a quiet shard bounds nothing, as what it gets later is
    above all issued so far.  ``top`` is what recovery replays up to."""
    logged = [int((heads or {}).get(f"s{i}", 0)) for i in range(len(issued))]
    top = max(logged)
    busy = [head for head, mark in zip(logged, issued) if head < mark]
    return min(busy, default=top), top


def fold_write(prev: Optional[Dict[str, Any]], image: Dict[str, Any],
               is_parent: bool, op: str, txid: int) -> Optional[Dict[str, Any]]:
    """One logged write folded over the path's previous checkpoint image
    (``prev``; None = none yet): the new image, or None for a deletion.
    Stamped like the user store's copy; a parent update keeps the data
    already held (the shape of the user store's ``update_metadata``)."""
    folded = stamped_image(image, is_parent, op, txid)
    if folded is not None and is_parent:
        folded["data"] = (prev or {}).get("data", b"")
    return folded


class SnapshotManager:
    """Commit log, fuzzy snapshots, compaction and recovery for one
    deployment (``service.snapshots``; None unless ``commit_log_enabled``).
    """

    def __init__(self, service) -> None:
        self.service = service
        self.queue = service._deploy_stage(
            "fk-snapshot", "snapshot", self, queue="fk-snapshot-q").queue
        registry = service.metrics
        self._appends = registry.counter(
            "fk_log_appends_total", "Commit-log records appended")
        self._snapshots = registry.counter(
            "fk_snapshots_taken_total", "Fuzzy snapshots completed")
        self._folded = registry.counter(
            "fk_snapshot_records_folded_total",
            "Log records folded into the checkpoint table")
        self._compacted = registry.counter(
            "fk_log_records_compacted_total", "Log records truncated")
        self._floor = registry.gauge(
            "fk_snapshot_floor_txid", "Published snapshot floor")

    # ------------------------------------------------------------ log append
    def append_log(self, fctx, txid: int, shard: int,
                   writes: List[Tuple[str, Dict[str, Any], bool, str]],
                   session: Optional[str] = None) -> Generator:
        """Leader-side durable append, called after commit verification and
        before replication/publish.  One storage transaction writes the log
        record and advances the shard's head watermark; a redelivered
        message (head already at or past ``txid``) is a no-op.

        The record is also the transaction's outgoing *event* record: it
        carries the session and the commit timestamp, so the state change
        and what the outbox publisher will stream about it commit — or
        no-op on redelivery — together.
        """
        env = fctx.env
        t0 = env.now
        record = {
            "txid": txid,
            "shard": shard,
            "session": session,
            "ts": env.now,
            "writes": [[path, image, is_parent, op]
                       for path, image, is_parent, op in writes],
        }
        head_attr = f"s{shard}"
        try:
            yield from self.service.system_store.transact_update(fctx.ctx, [
                (SYSTEM_LOG, log_key(txid),
                 [Set(k, v) for k, v in record.items()], None),
                (SYSTEM_STATE, LOG_HEAD_KEY,
                 [Set(head_attr, txid)],
                 Attr(head_attr).not_exists() | (Attr(head_attr) <= txid)),
            ])
            self._appends.inc()
        except ConditionFailed:
            # Head beyond txid: this shard already logged the record on an
            # earlier delivery of the same message.
            pass
        fctx.record("log_append", env.now - t0)
        return None

    # ------------------------------------------------------------ log reader
    def bounds(self, ctx: OpContext) -> Generator[Any, Any, Tuple[int, int]]:
        """Durable read of :func:`log_bounds` — the ``(floor, top)`` every
        cursor (fold, publish, recovery) clamps itself to."""
        heads = yield from self.service.system_store.get_item(
            ctx, SYSTEM_STATE, LOG_HEAD_KEY)
        issued = [queue.issued for queue in self.service.leader_queues]
        return log_bounds(heads, issued)

    def burn(self, fctx, txid: int, shard: int) -> Generator:
        """A rejected txid moves its shard's head: no busy shard is left."""
        yield from advance_watermark(self.service.system_store, fctx.ctx,
                                     LOG_HEAD_KEY, f"s{shard}", txid)
        return None

    def logged(self, fctx, txids: List[int]) -> Generator:
        """A leader batch has logged or burned ``txids``: wake the
        publisher (its FIFO trigger merges messages under load) and, on a
        multiple of :data:`SNAPSHOT_EVERY`, the snapshot function."""
        outbox = self.service.outbox
        if outbox is not None:
            yield from outbox.queue.send(fctx.ctx, {"head": txids[-1]})
        if any(txid % SNAPSHOT_EVERY == 0 for txid in txids):
            yield from self.queue.send(fctx.ctx, {"head": txids[-1]})
        return None

    def read_suffix(self, ctx: OpContext, lo: int, hi: int,
                    visit) -> Generator[Any, Any, int]:
        """The one suffix read: fetch the records of ``(lo, hi]`` in txid
        order, running the ``visit(record)`` coroutine on each before
        fetching the next; returns how many were visited.  A txid without
        a record was burned by a rejected write — no commit."""
        visited = 0
        for txid in range(lo + 1, hi + 1):
            record = yield from self.service.system_store.get_item(
                ctx, SYSTEM_LOG, log_key(txid))
            if record is None:
                continue
            yield from visit(record)
            visited += 1
        return visited

    def _meta(self, ctx: OpContext) -> Generator[Any, Any, Dict[str, int]]:
        meta = yield from self.service.system_store.get_item(
            ctx, SYSTEM_STATE, SNAPSHOT_META_KEY)
        return meta or {"txid": 0, "seq": 0, "compacted": 0}

    # ------------------------------------------------------------ snapshot
    def take_snapshot(self, ctx: OpContext) -> Generator[Any, Any, int]:
        """Fold the log suffix above the previous floor into the snapshot
        table; returns the new floor (the previous one when nothing new is
        fully logged).  Every item it reads or writes is a suffix record
        or a path one writes, so its bill follows the suffix alone.  Runs
        concurrent with commits — fuzzy: items folded before a crash stay
        ahead of the published floor and the guarded (per-item
        landed-txid) writes make the re-fold idempotent."""
        store = self.service.system_store
        floor, _top = yield from self.bounds(ctx)
        meta = yield from self._meta(ctx)
        prev = int(meta.get("txid", 0))
        if floor <= prev:
            return prev
        folded = yield from self.read_suffix(
            ctx, prev, floor, lambda record: self._fold_record(ctx, record))
        self._folded.inc(folded)
        yield from store.put_item(ctx, SYSTEM_STATE, SNAPSHOT_META_KEY, {
            "txid": floor,
            "seq": int(meta.get("seq", 0)) + 1,
            "compacted": int(meta.get("compacted", 0)),
        })
        self._snapshots.inc()
        self._floor.set(floor)
        return floor

    def _fold_record(self, ctx: OpContext, record: Dict[str, Any]) -> Generator:
        """Apply one log record to the checkpoint, newest-txid-wins.  Every
        write is guarded by the checkpoint item's landed txid, so re-folding
        after a crashed (fuzzy) snapshot never regresses an item."""
        store = self.service.system_store
        txid = record["txid"]
        newer = Attr("txid").not_exists() | (Attr("txid") < txid)
        for path, image, is_parent, op in record["writes"]:
            prev = None
            if is_parent:
                existing = yield from store.get_item(ctx, SYSTEM_SNAPSHOT, path)
                prev = (existing or {}).get("image")
            folded = fold_write(prev, image, is_parent, op, txid)
            try:
                if folded is None:
                    yield from store.delete_item(
                        ctx, SYSTEM_SNAPSHOT, path, condition=newer)
                else:
                    yield from store.put_item(
                        ctx, SYSTEM_SNAPSHOT, path,
                        {"txid": txid, "image": folded}, condition=newer)
            except ConditionFailed:
                pass  # checkpoint item already past this txid (re-fold)
        return None

    # ------------------------------------------------------------ compaction
    def compact(self, ctx: OpContext) -> Generator[Any, Any, int]:
        """Truncate the log up to the slowest cursor — ``min(snapshot
        floor, every region's replicated_tx, outbox:published)``; returns
        the number of records removed.  The clamp is load-bearing: a
        lagging region replays ``(replicated_tx, head]`` and the publisher
        streams events out of the records above its watermark — compaction
        must never eat what a reader still needs."""
        store = self.service.system_store
        meta = yield from self._meta(ctx)
        cut = int(meta.get("txid", 0))
        pins = []
        if self.service.distribution is not None:
            pins += [replicated_key(r) for r in self.service.config.regions]
        if self.service.outbox is not None:
            pins.append(OUTBOX_PUBLISHED_KEY)
        for key in pins:
            mark = yield from store.get_item(ctx, SYSTEM_STATE, key)
            cut = min(cut, int((mark or {}).get("txid", 0)))
        start = int(meta.get("compacted", 0))
        if cut <= start:
            return 0
        removed = 0
        for txid in range(start + 1, cut + 1):
            try:
                yield from store.delete_item(ctx, SYSTEM_LOG, log_key(txid),
                                             condition=item_exists())
                removed += 1
            except ConditionFailed:
                continue  # burned txid: no record was ever written
        yield from advance_watermark(store, ctx, SNAPSHOT_META_KEY,
                                     "compacted", cut)
        self._compacted.inc(removed)
        return removed

    # ------------------------------------------------------------ recovery
    def recover_region(self, ctx: OpContext, region: str,
                       cold: bool = False) -> Generator[Any, Any, Dict[str, int]]:
        """Rebuild (``cold=True``: the replica is gone — load the snapshot,
        then replay the suffix above the floor) or catch up (``cold=False``:
        the store survived — replay the suffix above the region's
        ``replicated_tx``) one region's user store from durable state.

        Replay applies records in txid order through the exact
        ``write_user_image`` path the write pipelines use, so a recovered
        replica is byte-identical to one that never crashed; re-applying
        records the store already holds converges for the same reason the
        distributor's redeliveries do (per-path last-writer-wins in commit
        order).  Works for distributor regions and for the inline
        (leader-replicated) pipeline alike.
        """
        store = self.service.system_store
        meta = yield from self._meta(ctx)
        floor = int(meta.get("txid", 0))
        _floor, top = yield from self.bounds(ctx)
        loaded = 0
        if cold:
            start = floor
            checkpoint = yield from store.scan(ctx, SYSTEM_SNAPSHOT)
            for path in sorted(checkpoint):
                image = dict(checkpoint[path]["image"])
                image.setdefault("epoch", [])
                yield from self.service.user_store.write_node(
                    ctx, region, path, image)
                loaded += 1
        else:
            start = int(meta.get("compacted", 0))
            if self.service.distribution is not None:
                mark = yield from store.get_item(
                    ctx, SYSTEM_STATE, replicated_key(region))
                start = max(start, int((mark or {}).get("txid", 0)))
        replayed_txids: List[int] = []

        def replay(record: Dict[str, Any]) -> Generator:
            for path, image, is_parent, op in record["writes"]:
                yield from write_user_image(
                    self.service.user_store, ctx, region, path, image,
                    epoch=[], txid=record["txid"], op=op, is_parent=is_parent)
            replayed_txids.append(record["txid"])

        yield from self.read_suffix(ctx, start, top, replay)
        if self.service.distribution is not None and replayed_txids:
            yield from advance_watermark(store, ctx, replicated_key(region),
                                         "txid", replayed_txids[-1])
            self.service.distribution.visibility.mark(region, replayed_txids)
        return {"loaded": loaded, "replayed": len(replayed_txids),
                "floor": floor, "start": start, "top": top}

    # ------------------------------------------------------------ triggered fn
    def handler(self, fctx, payload: Any) -> Generator:
        """The ``fk-snapshot`` function, fed by :meth:`logged` through its
        FIFO queue: one fuzzy snapshot + one compaction sweep per batch of
        trigger messages."""
        floor = yield from self.take_snapshot(fctx.ctx)
        removed = yield from self.compact(fctx.ctx)
        return {"floor": floor, "compacted": removed}
