"""The leader function (Algorithm 2), one instance per shard.

A FIFO queue per shard feeds a leader instance with committed updates in
txid order.  Every update is a transaction envelope of one or more
members, which the follower folded once into a *write set* — one record
per touched path: its commit updates, storage guards and watch triggers —
and the replicated image of each written path, projected from its final
staged node; a lone write is the one-member case and takes no other
route.  The leader reads both and never re-folds the members.  For each
update the leader

➊ reads the primary path's system node and verifies the transaction is at
  the head of its pending list (the envelope committed atomically, so one
  path speaks for all),
➋ if the follower died between push and commit, tries to commit the whole
  write set on its behalf (TryCommit) once the lock leases have expired —
  otherwise the update is rejected and the client notified of the failure,
➌ replicates each written path's image into the user store of every
  region in parallel, attaching the current epoch (the watch
  notifications still in flight),
➍ consumes triggered watches (each instance once per envelope), adds
  their ids to the epoch counters, invokes the watch fan-out function and
  clears the ids once it is done — the consume-and-clear tail
  (``WatchRegistry.consume``, ``EpochLedger.remove_after``) that the
  distributor's watch stage runs too,
➎ notifies the client with one response carrying the per-member results
  and pops the transaction from every touched path.

At the end of a batch the leader lists every delete it applied — or found
already applied, so a crash between the pop and the send loses none — in
one message to the GC stage's delayed queue (:mod:`repro.faaskeeper.gc`).

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
  parent's pending-transaction list, giving a per-path total order.

Every shard replicates every committed image, exactly like the single
leader; superseded writes are coalesced only by the distributor stage.

With ``distributor_enabled`` the leader replaces ➌–➍ (after ➊–➋ plus the
fence and pending-list gates) by publishing one record to the per-region
distributor stage (:mod:`repro.faaskeeper.distributor`), which replicates
and fans out watches later; ➎ follows at once, so the client is
acknowledged at commit, as in ZooKeeper, and reads ride the visibility
watermark instead.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from ..cloud.errors import ConditionFailed, Redeliver
from ..cloud.expressions import Attr, ListRemove, Set
from ..sim.kernel import AllOf, gather
from .distributor import write_user_image
from .follower import commit_updates
from .layout import SYSTEM_NODES
from .model import Response

__all__ = ["LeaderLogic", "RetryBatch"]


class RetryBatch(Redeliver):
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
        #: ``[path, txid]`` of every delete the batch applied.
        self._tombstones: List[List[Any]] = []

    def cold_restart(self) -> None:
        """Drop every piece of warm-sandbox state (the chaos harness calls
        this when an invocation crashes): the epoch mirror re-hydrates from
        storage on the next invocation, exactly like a real cold start."""
        self._epoch_loaded = False
        self._pending_callbacks = []

    # ------------------------------------------------------------ epoch
    @property
    def sharded(self) -> bool:
        return self.service.config.leader_shards > 1

    def _load_epoch(self, fctx) -> Generator:
        if not self._epoch_loaded:
            yield from self.service.epoch_ledger.load(fctx.ctx)
            self._epoch_loaded = True
        return None

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
        # other's batches would deadlock.
        board = self.service.fence_board
        fence = msg.get("fence")
        if board is None or fence is None:
            return
        board.advance(msg["session"], fence)

    # ------------------------------------------------------------ handler
    def handler(self, fctx, batch: List[Dict[str, Any]]) -> Generator:
        yield from self._load_epoch(fctx)
        self._pending_callbacks = []
        self._tombstones = []
        for msg in batch:
            yield from self.process(fctx, msg)
        if self._tombstones:
            yield from self.service.gc_queue.send(
                fctx.ctx, {"tombstones": self._tombstones})
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

    def process(self, fctx, msg: Dict[str, Any]) -> Generator:
        """Algorithm 2 for one committed envelope: verify the txid once,
        gate every touched path, replicate per-path final images and fire
        watches exactly once per instance with the txid (or publish both
        to the distributor), answer with one response carrying per-op
        results, and pop the txid everywhere.
        """
        env = fctx.env
        txid = msg["_seq"]
        primary = msg["path"]
        sys_store = self.service.system_store

        yield from self._wait_fence(msg)
        # The follower's write set and the images it projected.
        write_set, writes = msg["write_set"], msg["writes"]
        commit_paths = [path for path, rec in write_set.items()
                        if rec["node"] or rec["sets"]]

        # ➊ verify commit status on the primary path: the envelope committed
        # atomically, so one path's watermark speaks for all of it
        t0 = env.now
        node = yield from sys_store.get_item(fctx.ctx, SYSTEM_NODES, primary)
        fctx.record("get_node", env.now - t0)
        node = node or {}
        if node.get("applied_tx", 0) >= txid:
            # Redelivered after a partial batch: already replicated.  The
            # primary pops first, so a crash before the other pops left the
            # txid pending there: pop them (a pop of a txid no longer, or
            # never, pending there is refused).
            self._applied(msg, txid)
            yield from self._notify_success(fctx, msg, txid)
            yield from self._pop_paths(fctx, commit_paths[1:], txid)
            self._pass_fence(msg)
            return None
        pending = node.get("transactions", [])
        if txid not in pending:
            committed = yield from self._try_commit(fctx, msg, txid, node)
            if not committed:
                # The request was never committed and cannot be: reject (Z1
                # intact).  Its txid never replicates nor gets a log record:
                # burn it, so the visibility floor and the log floor can
                # pass it.
                if self.service.distribution is not None:
                    self.service.distribution.visibility.burn(txid)
                if self.service.snapshots is not None:
                    yield from self.service.snapshots.burn(
                        fctx, txid, self.shard)
                yield from self._notify_failure(msg, "system_failure")
                self._pass_fence(msg)
                return None
        elif pending[0] != txid:
            # Predecessor still unpopped — should not happen under FIFO
            # delivery, but redelivery is always safe.
            raise RetryBatch(f"txid {txid} behind {pending[0]} on {primary}")
        self._applied(msg, txid)

        # Durable commit log: the record (one per envelope) must exist
        # before anything downstream (replication, distribution, watches,
        # ack) can happen, so every applied txid is replayable after a crash.
        if self.service.snapshots is not None:
            yield from self.service.snapshots.append_log(
                fctx, txid, self.shard, writes,
                session=msg.get("session"))

        # Sharded: a path may be written by several shard leaders (the
        # root is every top-level node's parent; a cross-shard multi rides
        # its coordinator's queue), so wait until the txid heads every
        # touched path's pending list (per-path total order).
        if self.sharded:
            for path in commit_paths:
                if path != primary:
                    yield from self._await_path_turn(fctx, path, txid)

        # ➍ prep: which watch types each written path triggers
        op_pairs = {path: write_set[path]["triggers"] for path, *_ in writes}

        if self.service.distribution is not None:
            # Distributor stage: hand ➌/➍ to the per-region distributor
            # queues (one record per envelope).  The publish is awaited
            # before the pop: a competing shard only starts (via the
            # per-path pending-list gate) after the pop, so the regional
            # queues receive same-path records in commit order.
            t0 = env.now
            yield from self.service.distribution.publish(fctx, {
                "txid": txid, "shard": self.shard, "session": msg["session"],
                "writes": writes,
                "watch_pairs": [(path, op, is_parent)
                                for path, pair_list in op_pairs.items()
                                for op, is_parent in pair_list]})
            fctx.record("distribute", env.now - t0)
        else:
            # ➌ replicate per-path final images, all regions in parallel (one
            # epoch snapshot per region per message — the snapshot cannot
            # change while the replication processes are being spawned)
            t0 = env.now
            yield fctx.compute(base_ms=0.3, payload_kb=msg["payload_kb"],
                               per_kb_ms=0.12)
            ledger = self.service.epoch_ledger
            epochs = {region: ledger.snapshot(region)
                      for region in self.service.config.regions}
            yield from gather(env, [
                write_user_image(self.service.user_store, fctx.ctx, region,
                                 path, image, epochs[region], txid, op,
                                 is_parent)
                for path, image, is_parent, op in writes
                for region in self.service.config.regions])
            fctx.record("update_user", env.now - t0)

            # ➍ watches: one query/consume per touched path; every instance
            # fires exactly once per committed envelope, with its txid
            t0 = env.now
            triggered = yield from self.service.watch_registry.consume(
                fctx.ctx, op_pairs, txid)
            fctx.record("watch_query", env.now - t0)
            if triggered:
                watch_ids = [t.watch_id for t in triggered]
                yield from ledger.add(fctx.ctx, watch_ids)
                done = self.service.invoke_watch_fn(triggered, txid,
                                                    shard=self.shard)
                cb = env.process(
                    ledger.remove_after(done, watch_ids,
                                        self.service.system_ctx),
                    name="watch-callback")
                self._pending_callbacks.append(cb)

        # ➎ notify (one response, per-op results) + pop the txid
        yield from self._notify_success(fctx, msg, txid)
        yield from self._pop_paths(fctx, commit_paths, txid)
        self._pass_fence(msg)
        return None

    # ------------------------------------------------------------ shared steps
    def _applied(self, msg: Dict[str, Any], txid: int) -> None:
        """``txid`` commits: list the tombstones its deletes leave."""
        self._tombstones += [[path, txid] for path, image, *_ in msg["writes"]
                             if image.get("deleted")]

    def _pop_paths(self, fctx, paths: List[str], txid: int) -> Generator:
        env = fctx.env
        t0 = env.now
        for path in paths:
            try:
                yield from self.service.system_store.update_item(
                    fctx.ctx, SYSTEM_NODES, path,
                    updates=[ListRemove("transactions", [txid]),
                             Set("applied_tx", txid)],
                    condition=Attr("transactions").contains(txid) & (
                        Attr("applied_tx").not_exists()
                        | (Attr("applied_tx") < txid)),
                    payload_kb=0.032,
                )
            except ConditionFailed:  # a redelivery's done (or never) pop
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

        The write set's records and the session-record updates (the dedup
        watermark ``last_rid``, guarded so a request commits once, and the
        owners' ephemeral lists) are the exact transaction the follower
        would have applied (:func:`commit_updates` is shared), so its
        redelivery finds the request done.  The node records are guarded by
        the preconditions each member validated against: data version
        for set/check/delete first-touches, the parent's child-list version
        for create/delete, and expired locks everywhere.  The transaction
        also clears each expired lock it commits under, so the holder's
        own step ➃, landing late, fails its lease guard instead of
        committing the txid a second time.  ``node`` is the primary path's
        item step ➊ just read; only the other touched paths cost a lock
        read here.
        """
        env = fctx.env
        t0 = env.now
        lock = self.service.node_lock
        write_set = msg["write_set"]
        for path in write_set:
            item = node if path == msg["path"] else (
                yield from self.service.system_store.get_item(
                    fctx.ctx, SYSTEM_NODES, path))
            if lock.live(item, env.now):
                fctx.record("try_commit", env.now - t0)
                raise RetryBatch(f"lock live on {path} for txid {txid}")
        applied_before = Attr("applied_tx").not_exists() | (
            Attr("applied_tx") < txid)
        ops = []
        for path, rec in write_set.items():
            guard = lock.free(env.now)
            if path == msg["path"]:
                guard = guard & applied_before & (
                    ~Attr("transactions").contains(txid))
            if rec.get("prev_version") is not None:
                guard = guard & (Attr("version") == rec["prev_version"])
            if rec.get("parent_prev_cversion") is not None:
                # Guard the child list — also when the path is node-written
                # by this same envelope (a concurrent child create bumps
                # cversion, not version).
                guard = guard & (Attr("cversion") == rec["parent_prev_cversion"])
            ops.append((SYSTEM_NODES, path,
                        commit_updates(rec, txid) + [lock.UNLOCK], guard))
        ops += msg["session_ops"]
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
        if lock.live(fresh, env.now):
            raise RetryBatch(f"lock re-taken on {msg['path']}")
        return False

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
