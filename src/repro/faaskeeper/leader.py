"""The leader function (Algorithm 2), one instance per shard.

A FIFO queue per shard feeds a leader instance with committed updates in
txid order.  Every update is a transaction envelope — the staged
sub-operations of one or more members plus the per-path replication plan
the follower derived from them; a lone write is the one-member case and
takes no other route.  For each update the leader

➊ reads the primary path's system node and verifies the transaction is at
  the head of its pending list (the envelope committed atomically, so one
  path speaks for all),
➋ if the follower died between push and commit, tries to commit the whole
  envelope on its behalf (TryCommit) once the lock leases have expired —
  otherwise the update is rejected and the client notified of the failure,
➌ replicates each touched path's final image into the user store of every
  region in parallel, attaching the current epoch (the watch
  notifications still in flight),
➍ consumes triggered watches (each instance once per envelope), adds
  their ids to the epoch counters and invokes the watch fan-out function,
➎ notifies the client with one response carrying the per-member results
  and pops the transaction from every touched path.

Ambiguous states (lock still held by a live follower) raise, making the
FIFO queue redeliver the batch; the ``applied_tx`` watermark makes
redeliveries idempotent.

Sharded-pipeline extensions (disabled at ``leader_shards=1``, which runs
the paper's single-leader Algorithm 2 unchanged):

* **session fences** — a session's writes may land on different shards;
  each message carries a session-sequence fence and a leader only starts a
  message after the session's previous write finished on whichever shard
  owns it, so commits and user-store visibility follow request order (Z2);
* **parent replication gate** — the root is the parent of every top-level
  node and is therefore written by several shards; before replicating a
  parent image the leader waits until its txid reaches the head of the
  parent's pending-transaction list, giving a per-path total order;
* **write coalescing** — inside one delivery batch (bounded by the SQS
  ``fifo_batch_limit`` calibration) a user-store write superseded by a
  later write to the same path is skipped; the corresponding client
  notifications are held back until the superseding write has landed, so
  acknowledged data is always readable.

With ``distributor_enabled`` the leader stops after ➊–➋ (plus the fence
and pending-list gates): steps ➌–➍ move into the per-region distributor
stage (:mod:`repro.faaskeeper.distributor`) and the client is
acknowledged per ``ack_policy`` — immediately after commit verification
under ``"on_commit"``, or once every region's user store holds the write
under ``"on_replicate"`` (the wait rides a spawned process, off the
leader's critical path).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Generator, List, Optional, Tuple

from ..cloud.errors import ConditionFailed
from ..cloud.expressions import Attr, ListAppend, ListRemove, Set
from ..sim.kernel import AllOf, gather
from .distributor import write_user_image
from .follower import LOCK_MAX_HOLD_MS, merge_multi_commit
from .layout import SYSTEM_NODES
from .model import Response

__all__ = ["LeaderLogic", "RetryBatch"]


class RetryBatch(Exception):
    """Raised to make the FIFO queue redeliver the current batch."""


class LeaderLogic:
    """Behaviour of one leader shard's function, bound to one deployment."""

    def __init__(self, service, shard: int = 0) -> None:
        self.service = service
        self.shard = shard
        # Leader instances are sticky (warm sandbox); the epoch counters are
        # cached by the shared ledger and hydrated lazily after cold starts.
        self._epoch_loaded = False
        self._pending_callbacks: List = []
        # Per-invocation coalescing state (reset in handler()).
        self._deferred: List[Tuple[str, Dict[str, Any], Any]] = []
        self._skipped_images: Dict[str, Tuple[Optional[Dict[str, Any]], int, str, bool]] = {}

    def cold_restart(self) -> None:
        """Drop every piece of warm-sandbox state (the chaos harness calls
        this when an invocation crashes): the epoch mirror re-hydrates from
        storage on the next invocation, exactly like a real cold start."""
        self._epoch_loaded = False
        self._pending_callbacks = []
        self._deferred = []
        self._skipped_images = {}

    # ------------------------------------------------------------ epoch
    @property
    def sharded(self) -> bool:
        return self.service.config.leader_shards > 1

    @property
    def distribution(self):
        """The deployment's distributor stage (None when disabled: the
        leader then replicates and fans out watches inline, as in the
        paper's Algorithm 2)."""
        return self.service.distribution

    def _load_epoch(self, fctx) -> Generator:
        if not self._epoch_loaded:
            yield from self.service.epoch_ledger.load(fctx.ctx)
            self._epoch_loaded = True
        return None

    def epoch_snapshot(self, region: str) -> List[str]:
        return self.service.epoch_ledger.snapshot(region)

    # ------------------------------------------------------------ fences
    def _wait_fence(self, msg: Dict[str, Any]) -> Generator:
        """Hold the message until the session's previous write (possibly on
        another shard) has been applied."""
        board = self.service.fence_board
        fence = msg.get("fence")
        if board is None or fence is None:
            return None
        yield from board.wait(msg["session"], fence - 1)
        return None

    def _pass_fence(self, msg: Dict[str, Any]) -> None:
        # Fences advance as soon as the message's processing is decided —
        # never deferred, or two shard leaders holding back fences for each
        # other's batches would deadlock.  A coalesced (skipped) write is
        # not yet readable when its fence passes; its client *notification*
        # is what gets deferred until the superseding write lands, and the
        # client library refuses to start a read before all earlier write
        # responses arrived, preserving read-your-writes.
        board = self.service.fence_board
        fence = msg.get("fence")
        if board is None or fence is None:
            return
        board.advance(msg["session"], fence)

    # ------------------------------------------------------------ coalescing
    @staticmethod
    def _write_entries(msg: Dict[str, Any]) -> List[Tuple[str, bool]]:
        """``(path, is_meta_only)`` pairs a message writes to the user
        store: one entry per touched path, so a message both supersedes
        earlier pending writes to the same paths and can itself be
        superseded by later ones."""
        return [(path, is_parent)
                for path, _image, is_parent, _op in msg["replication_plan"]]

    def _coalesce_plan(self, batch: List[Dict[str, Any]]
                       ) -> Dict[int, FrozenSet[str]]:
        """Last-writer-wins write coalescing inside one delivery batch.

        Returns ``{message index: paths whose user-store write is skipped}``.
        A node-image write is superseded by a later node-image write to the
        same path (the staged images are produced under the node lock, so a
        later batch position implies a later commit); a parent metadata
        update is superseded by any later write to the parent's path.
        Only a sharded deployment coalesces: the paper's single leader
        keeps one user-store write per request, as calibrated.
        """
        if self.service.config.leader_shards == 1 or len(batch) < 2:
            return {}
        entries = [self._write_entries(msg) for msg in batch]
        last_image: Dict[str, int] = {}
        last_meta: Dict[str, int] = {}
        for i, msg_entries in enumerate(entries):
            for path, is_meta in msg_entries:
                (last_meta if is_meta else last_image)[path] = i
        plan: Dict[int, FrozenSet[str]] = {}
        for i, msg_entries in enumerate(entries):
            skip = set()
            for path, is_meta in msg_entries:
                if not is_meta and last_image[path] > i:
                    skip.add(path)
                if is_meta and max(last_image.get(path, -1),
                                   last_meta[path]) > i:
                    skip.add(path)
            if skip:
                plan[i] = frozenset(skip)
        return plan

    def _queue_success(self, fctx, msg: Dict[str, Any], txid: int,
                       defer: bool) -> Generator:
        if defer:
            self._deferred.append(("ok", msg, txid))
            return None
        yield from self._notify_success(fctx, msg, txid)
        return None

    def _queue_failure(self, fctx, msg: Dict[str, Any], error: str,
                       defer: bool) -> Generator:
        if defer:
            self._deferred.append(("fail", msg, error))
            return None
        yield from self._notify_failure(msg, error)
        return None

    def _flush_superseded(self, fctx, paths: List[str]) -> Generator:
        """A message whose writes would have superseded earlier skipped ones
        was rejected: replay the newest skipped image for those paths so
        every acknowledged write is user-visible."""
        work = []
        for path in paths:
            entry = self._skipped_images.pop(path, None)
            if entry is None:
                continue
            image, image_txid, op, is_parent = entry
            for region in self.service.config.regions:
                work.append(self._replay(fctx, region, path, image,
                                         image_txid, op, is_parent))
        yield from gather(fctx.env, work)
        return None

    def _replay(self, fctx, region: str, path: str,
                image: Optional[Dict[str, Any]], image_txid: int,
                op: str, is_parent: bool) -> Generator:
        if is_parent and image is not None and not image.get("deleted"):
            # A cross-shard writer (the root is a shared parent) may have
            # replicated a newer parent image since this one was skipped;
            # never clobber it with stale metadata.
            existing = yield from self.service.user_store.read_node(
                fctx.ctx, region, path)
            if existing is not None and \
                    existing.get("cversion", 0) >= image.get("cversion", 0):
                return None
        yield from self._replicate(fctx, region, path, image,
                                   self.epoch_snapshot(region),
                                   image_txid, op, is_parent)
        return None

    # ------------------------------------------------------------ handler
    def handler(self, fctx, batch: List[Dict[str, Any]]) -> Generator:
        fctx.crash_point("leader_entry")
        yield from self._load_epoch(fctx)
        self._pending_callbacks = []
        self._deferred = []
        self._skipped_images = {}
        # With the distributor stage the leader never writes the user store,
        # so in-batch coalescing (and its notification deferral) moves
        # downstream, where it generalizes across leader batches.
        plan = ({} if self.distribution is not None
                else self._coalesce_plan(batch))
        for i, msg in enumerate(batch):
            yield from self.process(fctx, msg,
                                    skip_paths=plan.get(i, frozenset()))
            fctx.crash_point("leader_mid_batch")
        # Flush completions of coalesced messages: every superseding write
        # of this batch has landed by now, so an acknowledged write is
        # always readable.
        for kind, msg, payload in self._deferred:
            if kind == "ok":
                yield from self._notify_success(fctx, msg, payload)
            else:
                yield from self._notify_failure(msg, payload)
        self._deferred = []
        self._skipped_images = {}
        # Every txid of the batch is logged or burned: wake the consumers.
        if self.service.snapshots is not None:
            yield from self.service.snapshots.logged(
                fctx, [msg["_seq"] for msg in batch])
        # WaitAll(WatchCallback): the instance lingers until all of its
        # notifications are delivered and cleared from the epoch.
        if self._pending_callbacks:
            yield AllOf(fctx.env, self._pending_callbacks)
        self._pending_callbacks = []
        return None

    def process(self, fctx, msg: Dict[str, Any],
                skip_paths: FrozenSet[str] = frozenset()) -> Generator:
        """Algorithm 2 for one committed envelope: verify the txid once,
        gate every touched path, replicate per-path final images, fire
        watches exactly once per instance with the txid, answer with one
        response carrying per-op results, and pop the txid everywhere.
        """
        env = fctx.env
        txid = msg["_seq"]
        primary = msg["path"]
        sys_store = self.service.system_store

        yield from self._wait_fence(msg)
        # A message whose write is skipped (superseded within this batch)
        # must not be acknowledged before the superseding write lands: its
        # notification is emitted at batch end instead.
        defer = bool(skip_paths)
        # Per-path final user-store actions, computed by the follower.
        affected = msg["replication_plan"]
        commit_paths = msg["commit_paths"]

        # ➊ verify commit status on the primary path: the envelope committed
        # atomically, so one path's watermark speaks for all of it
        t0 = env.now
        node = yield from sys_store.get_item(fctx.ctx, SYSTEM_NODES, primary)
        fctx.record("get_node", env.now - t0)
        node = node or {}
        if node.get("applied_tx", 0) >= txid:
            # Redelivered after a partial batch: already replicated (or
            # skipped — re-record skipped images so a later rejection in
            # this batch can still replay them).
            for path, image, is_parent, op in affected:
                if path in skip_paths:
                    self._skipped_images[path] = (image, txid, op, is_parent)
            yield from self._queue_success(fctx, msg, txid, defer)
            self._pass_fence(msg)
            return None
        pending = node.get("transactions", [])
        if txid not in pending:
            committed = yield from self._try_commit(fctx, msg, txid, node)
            if not committed:
                # The request was never committed and cannot be: reject (Z1
                # intact).  Earlier writes it would have superseded must
                # become visible after all.  Its txid never replicates nor
                # gets a log record: burn it, so the visibility floor and
                # the log floor can pass it.
                if self.distribution is not None:
                    self.distribution.visibility.burn(txid)
                if self.service.snapshots is not None:
                    yield from self.service.snapshots.burn(
                        fctx, txid, self.shard)
                yield from self._flush_superseded(
                    fctx, [path for path, _image, _meta, _op in affected])
                yield from self._queue_failure(fctx, msg, "system_failure", defer)
                self._pass_fence(msg)
                return None
        elif pending[0] != txid:
            # Predecessor still unpopped — should not happen under FIFO
            # delivery, but redelivery is always safe.
            raise RetryBatch(f"txid {txid} behind {pending[0]} on {primary}")

        # Durable commit log: the record (one per envelope) must exist
        # before anything downstream (replication, distribution, watches,
        # ack) can happen, so every applied txid is replayable after a crash.
        if self.service.snapshots is not None:
            yield from self.service.snapshots.append_log(
                fctx, txid, self.shard, list(affected),
                session=msg.get("session"))
            fctx.crash_point("leader_after_log")

        # Sharded: a path may be written by several shard leaders (the
        # root is every top-level node's parent; a cross-shard multi rides
        # its coordinator's queue), so wait until the txid heads every
        # touched path's pending list (per-path total order).
        if self.sharded:
            for path in commit_paths:
                if path != primary:
                    yield from self._await_path_turn(fctx, path, txid)

        # ➍ prep: which watch types each touched path triggers
        op_pairs: Dict[str, List[Tuple[str, bool]]] = {}
        for sub in msg["subs"]:
            if sub["op"] == "check":
                continue
            op_pairs.setdefault(sub["path"], []).append((sub["op"], False))
            if sub.get("parent"):
                op_pairs.setdefault(sub["parent"], []).append((sub["op"], True))

        # Distributor stage: hand replication + watch fan-out to the
        # per-region distributor queues (one record per envelope); ➌/➍
        # leave the critical path.
        if self.distribution is not None:
            pairs = [(path, op, is_parent)
                     for path, pair_list in op_pairs.items()
                     for op, is_parent in pair_list]
            yield from self._distribute_and_finish(
                fctx, msg, txid, list(affected), pairs, commit_paths)
            return None

        # ➌ replicate per-path final images, all regions in parallel (one
        # epoch snapshot per region per message — the snapshot cannot change
        # while the replication processes are being spawned)
        t0 = env.now
        data_kb = sum(len(sub["node_image"].get("data", b"") or b"") / 1024.0
                      for sub in msg["subs"] if sub["op"] != "check")
        yield fctx.compute(base_ms=0.3, payload_kb=data_kb, per_kb_ms=0.12)
        epochs = {region: self.epoch_snapshot(region)
                  for region in self.service.config.regions}
        work = []
        for path, image, is_parent, op in affected:
            if path in skip_paths:
                self._skipped_images[path] = (image, txid, op, is_parent)
                continue
            self._skipped_images.pop(path, None)
            for region in self.service.config.regions:
                work.append(self._replicate(fctx, region, path, image,
                                            epochs[region], txid, op,
                                            is_parent))
        yield from gather(env, work)
        fctx.record("update_user", env.now - t0)

        # ➍ watches: one query/consume per touched path; every instance
        # fires exactly once per committed envelope, with its txid
        triggered = yield from self._consume_watches(fctx, op_pairs)
        if triggered:
            watch_ids = [t.watch_id for t in triggered]
            yield from self.service.epoch_ledger.add(fctx.ctx, watch_ids)
            done = self.service.invoke_watch_fn(triggered, txid, shard=self.shard)
            cb = env.process(
                self.service.epoch_ledger.remove_after(
                    done, watch_ids, self.service.system_ctx),
                name="watch-callback")
            self._pending_callbacks.append(cb)

        # ➎ notify (one response, per-op results) + pop the txid
        yield from self._queue_success(fctx, msg, txid, defer)
        yield from self._pop_paths(fctx, commit_paths, txid)
        self._pass_fence(msg)
        return None

    # ------------------------------------------------------------ distribution
    def _distribute_and_finish(self, fctx, msg: Dict[str, Any], txid: int,
                               writes: List[Tuple[str, Optional[Dict[str, Any]], bool, str]],
                               watch_pairs: List[Tuple[str, str, bool]],
                               pop_paths: List[str]) -> Generator:
        """Post-verification tail of the distributor pipeline: publish one
        distribution record per region, acknowledge per ``ack_policy``,
        pop the transaction and advance the session fence.

        The publish is awaited *before* the pop: a competing shard only
        starts (via the per-path pending-list gate) after the pop, so the
        regional queues receive same-path records in commit order.
        """
        env = fctx.env
        record = {
            "txid": txid,
            "shard": self.shard,
            "session": msg["session"],
            "writes": writes,
            "watch_pairs": watch_pairs,
        }
        t0 = env.now
        yield from self.distribution.publish(fctx, record)
        fctx.record("distribute", env.now - t0)
        if self.service.config.ack_policy == "on_commit":
            yield from self._queue_success(fctx, msg, txid, defer=False)
        else:
            # on_replicate keeps the paper's acknowledgement semantics —
            # the client hears back once every region holds the write —
            # without re-serializing the leader: the wait rides a spawned
            # process the handler lingers on.
            events = [self.distribution.visibility.event(region, txid)
                      for region in self.service.config.regions]
            self._pending_callbacks.append(env.process(
                self._ack_after(fctx, msg, txid, events),
                name=f"ack-after:{txid}"))
        yield from self._pop_paths(fctx, pop_paths, txid)
        self._pass_fence(msg)
        return None

    def _ack_after(self, fctx, msg: Dict[str, Any], txid: int,
                   events: List) -> Generator:
        pending = [ev for ev in events if not ev.processed]
        if pending:
            yield AllOf(fctx.env, pending)
        yield from self._notify_success(fctx, msg, txid)
        return None

    # ------------------------------------------------------------ shared steps
    def _consume_watches(self, fctx,
                         op_pairs: Dict[str, List[Tuple[str, bool]]]
                         ) -> Generator:
        """Step ➍ prelude: query + consume the watches each touched path
        triggers, one path after the other (the paper's calibrated latency
        split)."""
        env = fctx.env
        t0 = env.now
        triggered: List = []
        for path, pairs in op_pairs.items():
            found = yield from self.service.watch_registry.query_consume_ops(
                fctx.ctx, path, pairs)
            triggered.extend(found)
        fctx.record("watch_query", env.now - t0)
        return triggered

    def _pop_paths(self, fctx, paths: List[str], txid: int) -> Generator:
        env = fctx.env
        t0 = env.now
        for path in paths:
            try:
                yield from self.service.system_store.update_item(
                    fctx.ctx, SYSTEM_NODES, path,
                    updates=[ListRemove("transactions", [txid]),
                             Set("applied_tx", txid)],
                    condition=Attr("applied_tx").not_exists()
                    | (Attr("applied_tx") < txid),
                    payload_kb=0.032,
                )
            except ConditionFailed:  # pragma: no cover - concurrent watermark
                pass
        fctx.record("pop", env.now - t0)
        return None

    # ------------------------------------------------------------ steps
    def _await_path_turn(self, fctx, path: str, txid: int) -> Generator:
        """Per-path replication order for paths other shards also write
        (cross-shard parents, a cross-shard multi's members): proceed only
        when ``txid`` heads the path's pending list (or was popped by a
        prior delivery of this message)."""
        item = yield from self.service.system_store.get_item(
            fctx.ctx, SYSTEM_NODES, path)
        pending = (item or {}).get("transactions", [])
        if txid in pending and pending[0] != txid:
            raise RetryBatch(f"txid {txid} behind {pending[0]} on {path}")
        return None

    def _try_commit(self, fctx, msg: Dict[str, Any], txid: int,
                    node: Dict[str, Any]) -> Generator[Any, Any, bool]:
        """Step ➋: commit the whole envelope on behalf of a (presumably
        dead) follower, or reject it — never partially (Z1).

        Returns True when the transaction is committed (by us or, as we
        raced, by the recovering follower); False when the request is
        definitively rejected (the caller notifies the client).  Raises
        :class:`RetryBatch` while a follower's lease is still live.

        The merged per-path updates are the exact transaction the follower
        would have applied (:func:`merge_multi_commit` is shared), guarded
        by the preconditions each member validated against: data version
        for set/check/delete first-touches, the parent's child-list version
        for create/delete, and expired locks everywhere.  ``node`` is the
        primary path's item step ➊ just read; only the other touched
        paths cost a lock read here.
        """
        env = fctx.env
        t0 = env.now
        order, merged = merge_multi_commit(msg["subs"])
        for path in order:
            item = node if path == msg["path"] else (
                yield from self.service.system_store.get_item(
                    fctx.ctx, SYSTEM_NODES, path))
            lock_ts = ((item or {}).get("lock") or {}).get("ts")
            if lock_ts is not None and env.now - lock_ts < LOCK_MAX_HOLD_MS:
                fctx.record("try_commit", env.now - t0)
                raise RetryBatch(f"lock live on {path} for txid {txid}")
        applied_before = Attr("applied_tx").not_exists() | (
            Attr("applied_tx") < txid)
        ops = []
        for path in order:
            rec = merged[path]
            guard = Attr("lock.ts").not_exists() | (
                Attr("lock.ts") <= env.now - LOCK_MAX_HOLD_MS)
            if path == msg["path"]:
                guard = guard & applied_before & (
                    ~Attr("transactions").contains(txid))
            if rec["prev_version"] is not None:
                guard = guard & (Attr("version") == rec["prev_version"])
            if rec["parent_prev_cversion"] is not None:
                # Guard the child list — also when the path is node-written
                # by this same envelope (a concurrent child create bumps
                # cversion, not version).
                guard = guard & (Attr("cversion") == rec["parent_prev_cversion"])
            updates = [Set(k, v) for k, v in rec["sets"].items()]
            if rec["node"]:
                updates.append(Set("modified_tx", txid))
                if rec["created"]:
                    updates.append(Set("created_tx", txid))
            if rec["node"] or rec["sets"]:
                updates.append(ListAppend("transactions", [txid]))
            ops.append((SYSTEM_NODES, path, updates, guard))
        try:
            yield from self.service.system_store.transact_update(fctx.ctx, ops)
            fctx.record("try_commit", env.now - t0)
            return True
        except ConditionFailed:
            pass
        # Re-read: the follower may have committed while we tried.
        fresh = yield from self.service.system_store.get_item(
            fctx.ctx, SYSTEM_NODES, msg["path"])
        fresh = fresh or {}
        fctx.record("try_commit", env.now - t0)
        if txid in fresh.get("transactions", []) or \
                fresh.get("applied_tx", 0) >= txid:
            return True
        if (fresh.get("lock") or {}).get("ts") is not None and \
                env.now - fresh["lock"]["ts"] < LOCK_MAX_HOLD_MS:
            raise RetryBatch(f"lock re-taken on {msg['path']}")
        return False

    def _replicate(self, fctx, region: str, path: str,
                   image: Optional[Dict[str, Any]], epoch: List[str],
                   txid: int, op: str, is_parent: bool) -> Generator:
        yield from write_user_image(self.service.user_store, fctx.ctx, region,
                                    path, image, epoch, txid, op, is_parent)
        return None

    def _notify_success(self, fctx, msg: Dict[str, Any], txid: int) -> Generator:
        env = fctx.env
        t0 = env.now
        if msg["rid"] >= 0:
            # One response for the whole envelope, carrying the per-op
            # results stamped with the shared transaction id.
            yield from self.service.notify_response(Response(
                session=msg["session"], rid=msg["rid"], ok=True, txid=txid,
                results=[dict(res, ok=True, txid=txid)
                         for res in msg["results"]],
            ))
        fctx.record("notify", env.now - t0)
        return None

    def _notify_failure(self, msg: Dict[str, Any], error: str) -> Generator:
        yield from self.service.notify_response(Response(
            session=msg["session"], rid=msg["rid"], ok=False, error=error))
        return None
