"""The distributor stage: commit and distribution as separable pipelines.

The paper's scaling argument is that a writer only has to make a
transaction *durable*; propagating it — replicating the node image into
every region's user store and fanning out watch notifications — can
proceed asynchronously behind epoch counters.  The inline leader
(Algorithm 2) still does both: every write waits on an ``AllOf`` over all
all-region user-store writes plus the watch-registry round trips before
the client is acknowledged, so client-perceived write latency grows with
the region count and the watch density.

With ``FaaSKeeperConfig.distributor_enabled`` the leader stops after
commit verification (steps ➊–➋ and the cross-shard ordering gates): it
appends one *distribution record* per committed update to a FIFO
distributor queue **per region** and — under ``ack_policy="on_commit"`` —
acknowledges the client immediately.  Each region's distributor function
drains its queue in batches and

* **coalesces superseded writes** — the only stage that does: the
  regional queue aggregates records from every leader shard, so
  last-writer-wins coalescing spans commits that were acknowledged in
  different leader invocations (the inline leader, sharded or not,
  writes every committed image); a per-path landed-txid memory
  additionally skips redelivered or cross-batch-stale images;
* **pipelines independent-path writes** — one process per path applies
  that path's surviving writes in commit order while different paths
  proceed in parallel;
* **owns the watch stage** — the *primary* region's distributor performs
  the watch query/consume (parallel across paths), adds the triggered
  instance ids to every region's epoch counter, and invokes the watch
  fan-out function; epoch accounting therefore moves with the fan-out and
  the Z4 read stalls keep working.

Consistency is preserved by two boards (both simulation stand-ins for
conditional reads/writes on system-storage items — their waits model only
the *ordering*, not extra storage traffic):

* the watch gate (a :class:`GateBoard`, the same class as the leaders'
  session fence) — a regional write stage snapshots the epoch
  for a record only after the watch stage has processed that record, so
  any image with ``modified_tx > t`` carries the (still pending) watch
  ids triggered by transaction ``t`` — Z4's ordering invariant at any
  ``leader_shards`` × ``regions`` combination;
* :class:`VisibilityBoard` — tracks which transaction ids have landed in
  which region.  The distributor also maintains a per-region
  ``replicated_tx`` watermark item in the system store (one monotone
  write per batch); the client's session write barrier and the client
  read cache wait on the board of the region they read from, giving
  read-your-writes and Z2 session order under ``ack_policy="on_commit"``.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..cloud.errors import ConditionFailed
from ..cloud.expressions import Attr, Set
from ..sim.kernel import gather
from .follower import DISTRIBUTOR_BATCH
from .layout import SYSTEM_STATE, replicated_key
from .watches import armed_instances

__all__ = ["DistributionStage", "DistributorLogic", "GateBoard",
           "VisibilityBoard", "advance_watermark", "stamped_image",
           "write_user_image"]


def advance_watermark(store, ctx, key: str, attr: str, value: int) -> Generator:
    """Monotone durable watermark: raise ``attr`` of system-state item
    ``key`` to ``value`` unless a redelivery or a concurrent writer already
    got it there.  Every commit-log cursor and every region's
    ``replicated_tx`` advances through here."""
    try:
        yield from store.update_item(
            ctx, SYSTEM_STATE, key, updates=[Set(attr, value)],
            condition=Attr(attr).not_exists() | (Attr(attr) < value),
            payload_kb=0.032)
    except ConditionFailed:
        pass
    return None


def stamped_image(image: Dict[str, Any], is_parent: bool, op: str,
                  txid: int) -> Optional[Dict[str, Any]]:
    """The one stamp rule of a replicated write: None for a deletion; else
    a copy of ``image``, a node write stamped with the txid that produced
    it (``created_tx`` too for a create).  A parent update is metadata
    only: whoever applies it keeps the data already held."""
    if image.get("deleted"):
        return None
    full = dict(image)
    if not is_parent:
        full["modified_tx"] = txid
        if op == "create":
            full["created_tx"] = txid
    return full


def write_user_image(user_store, ctx, region: str, path: str,
                     image: Dict[str, Any], epoch: List[str],
                     txid: int, op: str, is_parent: bool) -> Generator:
    """Apply one replication action to one region's user store.

    Shared by the leader's inline step ➌, the distributor's write stage
    and region recovery, so every pipeline produces byte-identical
    user-store state.
    """
    full = stamped_image(image, is_parent, op, txid)
    if full is None:
        yield from user_store.delete_node(ctx, region, path)
        return None
    full["epoch"] = list(epoch)
    if is_parent:
        # The writer downloads the node and rewrites it around the
        # existing data (Section 3.2's read-update-write).
        yield from user_store.update_metadata(ctx, region, path, full)
    else:
        yield from user_store.write_node(ctx, region, path, full)
    return None


class VisibilityBoard:
    """Which transaction ids are visible (replicated) in which region.

    The authoritative value is the per-region ``replicated_tx`` item the
    distributor writes after every batch; the board is the simulation's
    stand-in for the conditional read a client would issue against it, so
    waiting models only the *ordering*, not extra storage traffic.

    Per region the board keeps a contiguous floor — every txid up to it
    has landed or was burned — plus the landed ids above it.  A write the
    leader rejects burns its txid without ever replicating, so the leader
    hands it to :meth:`burn`; once every id has landed or burned, the set
    above the floor is empty and a region costs two integers.
    """

    def __init__(self, env, regions: List[str]) -> None:
        self.env = env
        self.watermark: Dict[str, int] = {region: 0 for region in regions}
        self._floor: Dict[str, int] = {region: 0 for region in regions}
        self._above: Dict[str, set] = {region: set() for region in regions}
        self._events: Dict[Tuple[str, int], Any] = {}

    def visible(self, region: str, txid: int) -> bool:
        return txid <= self._floor[region] or txid in self._above[region]

    def event(self, region: str, txid: int):
        """Event that fires when ``txid`` lands in ``region`` (already
        triggered for landed ids)."""
        key = (region, txid)
        ev = self._events.get(key)
        if ev is None:
            ev = self.env.event()
            ev.defused()
            if self.visible(region, txid):
                ev.succeed(None)
            else:
                self._events[key] = ev
        return ev

    def wait(self, region: str, txid: int) -> Generator:
        ev = self.event(region, txid)
        if not ev.processed:
            yield ev
        return None

    def mark(self, region: str, txids: List[int]) -> None:
        self.watermark[region] = max([self.watermark[region], *txids])
        self._settle(region, txids)

    def burn(self, txid: int) -> None:
        """Settle a txid that will never replicate, in every region
        (idempotent: a redelivered rejection burns it again)."""
        for region in self._floor:
            self._settle(region, (txid,))

    def _settle(self, region: str, txids) -> None:
        floor, above = self._floor[region], self._above[region]
        for txid in txids:
            if txid > floor:
                above.add(txid)
            ev = self._events.pop((region, txid), None)
            if ev is not None and not ev.triggered:
                ev.succeed(None)
        while floor + 1 in above:
            floor += 1
            above.remove(floor)
        self._floor[region] = floor


class GateBoard:
    """Keyed monotone marks with ordered waiters: ``wait(key, n)`` resumes
    once ``advance`` has raised ``key``'s mark to at least ``n``.  A
    deployment holds up to two:

    * the **watch gate** (key = leader shard, marks = txids): the primary
      distributor advances a shard's gate to ``t`` once the watches
      triggered by every record of that shard up to ``t`` are consumed and
      in the epoch counters; regional write stages wait here.  A shard's
      records enter every distributor queue in commit order, so the gate
      is monotone per shard;
    * the **session fence** (key = session, marks = fences; Z2 across
      leader shards): the follower stamps each leader message with the
      session's next :meth:`issue` at push time — pushes of one session are
      serialized by its FIFO queue, so fences follow request order — and a
      shard leader starts a message only once ``fence - 1`` is applied, by
      whichever shard owned that write.
    """

    def __init__(self, env) -> None:
        self.env = env
        self._issued: Dict[Any, int] = {}
        self._mark: Dict[Any, int] = {}
        self._waiters: Dict[Any, List[Tuple[int, Any]]] = {}

    def issue(self, key) -> int:
        nxt = self._issued[key] = self._issued.get(key, 0) + 1
        return nxt

    def mark(self, key) -> int:
        return self._mark.get(key, 0)

    def advance(self, key, n: int) -> None:
        """Raise ``key``'s mark to ``n`` (idempotent, never regresses) and
        wake the waiters it satisfies."""
        if n <= self._mark.get(key, 0):
            return
        self._mark[key] = n
        waiters = self._waiters.pop(key, [])
        still: List[Tuple[int, Any]] = []
        for wanted, event in waiters:
            if n >= wanted:
                if not event.triggered:
                    event.succeed(None)
            else:
                still.append((wanted, event))
        if still:
            self._waiters[key] = still

    def wait(self, key, n: int) -> Generator:
        while self._mark.get(key, 0) < n:
            event = self.env.event()
            event.defused()
            self._waiters.setdefault(key, []).append((n, event))
            yield event
        return None


class DistributorLogic:
    """Behaviour of one region's distributor function.

    The primary region's instance additionally owns the watch stage (the
    fan-out is a deployment-wide concern and must consume each triggered
    instance exactly once, so exactly one distributor runs it).
    """

    def __init__(self, service, region: str, primary: bool) -> None:
        self.service = service
        self.region = region
        self.primary = primary
        self._epoch_loaded = False
        #: path -> newest txid whose write landed in this region: skips
        #: images superseded across batches and makes redeliveries
        #: idempotent.
        self._last_written: Dict[str, int] = {}
        self._batches = service.metrics.counter(
            "fk_distributor_batches_total",
            "Distribution batches drained", ("region",)).labels(region=region)
        self._coalesced = service.metrics.counter(
            "fk_distributor_coalesced_writes_total",
            "User-store writes skipped as superseded",
            ("region",)).labels(region=region)

    def cold_restart(self) -> None:
        """Drop warm-sandbox state after a crash (chaos harness hook): the
        epoch mirror re-hydrates from storage, and the landed-txid memory —
        a pure optimization over the idempotent ``write_user_image`` — is
        rebuilt from the writes themselves."""
        self._epoch_loaded = False
        self._last_written = {}

    # ------------------------------------------------------------ handler
    def handler(self, fctx, batch: List[Dict[str, Any]]) -> Generator:
        env = fctx.env
        stage = self.service.distribution
        fctx.crash_point("dist_entry")
        self._batches.inc()
        if not self._epoch_loaded:
            # Cold-start hydration of the shared epoch mirror, exactly like
            # a leader sandbox.
            yield from self.service.epoch_ledger.load(fctx.ctx)
            self._epoch_loaded = True

        # Newest txid per shard in this batch: what the watch stage
        # advances the gate to, and what the write stage waits on.
        newest: Dict[int, int] = {}
        for rec in batch:
            if rec["txid"] > newest.get(rec["shard"], 0):
                newest[rec["shard"]] = rec["txid"]
        if self.primary:
            yield from self._watch_stage(fctx, batch, newest)
            fctx.crash_point("dist_after_watch_stage")
        # Z4 gate: epoch snapshots must postdate the watch-stage processing
        # of every record in this batch, so later images carry the watch
        # ids of earlier (still undelivered) notifications.
        for shard, txid in newest.items():
            yield from stage.watch_gate.wait(shard, txid)

        # Write stage: cross-batch coalescing, then one process per path
        # (independent paths pipeline; one path's writes stay in commit
        # order).
        plan = self._coalesce(batch)
        t0 = env.now
        data_kb = sum(
            len((image or {}).get("data", b"") or b"") / 1024.0
            for entries in plan.values()
            for image, _is_parent, _op, _txid in entries)
        yield fctx.compute(base_ms=0.3, payload_kb=data_kb, per_kb_ms=0.12)
        epoch = self.service.epoch_ledger.snapshot(self.region)
        yield from gather(env, [self._apply_path(fctx, path, entries, epoch)
                                for path, entries in plan.items()])
        fctx.record("update_user", env.now - t0)
        fctx.crash_point("dist_before_visible")

        # Advance the region's visibility watermark: every record of this
        # batch is now readable (superseded writes are covered by the
        # superseding write that landed in the same or an earlier batch).
        yield from stage.mark_visible(fctx, self.region,
                                      [rec["txid"] for rec in batch])
        return None

    # ------------------------------------------------------------ coalescing
    def _coalesce(self, batch: List[Dict[str, Any]]
                  ) -> Dict[str, List[Tuple[Optional[Dict[str, Any]], bool, str, int]]]:
        """Last-writer-wins plan across every record of the batch.

        Returns ``{path: [(image, is_parent, op, txid)]}`` with at most two
        surviving entries per path, in commit order: a node-image write is
        superseded by a later node-image write to the same path; a parent
        metadata update is superseded by *any* later write to the path
        (the newest node image already carries the newest child list the
        follower staged against)."""
        plan: Dict[str, List[Tuple[Optional[Dict[str, Any]], bool, str, int]]] = {}
        for rec in batch:
            for path, image, is_parent, op in rec["writes"]:
                entries = plan.setdefault(path, [])
                entry = (image, is_parent, op, rec["txid"])
                if not is_parent:
                    # Drop every older write to the path.
                    self._coalesced.inc(len(entries))
                    plan[path] = [entry]
                else:
                    # Metadata update: replaces an older trailing metadata
                    # update, rides behind a surviving node image.
                    if entries and entries[-1][1]:
                        entries[-1] = entry
                        self._coalesced.inc()
                    else:
                        entries.append(entry)
        return plan

    def _apply_path(self, fctx, path: str,
                    entries: List[Tuple[Optional[Dict[str, Any]], bool, str, int]],
                    epoch: List[str]) -> Generator:
        for image, is_parent, op, txid in entries:
            if self._last_written.get(path, 0) >= txid:
                # A newer write already landed (redelivered batch, or a
                # record that was superseded across batches).
                self._coalesced.inc()
                continue
            yield from write_user_image(self.service.user_store, fctx.ctx,
                                        self.region, path, image, epoch,
                                        txid, op, is_parent)
            self._last_written[path] = txid
        return None

    # ------------------------------------------------------------ watch stage
    def _watch_stage(self, fctx, batch: List[Dict[str, Any]],
                     newest: Dict[int, int]) -> Generator:
        """Arm the watches triggered by the batch and schedule the fan-out.

        The stage is split in two to keep both ordering invariants of the
        inline pipeline across the asynchronous seam:

        1. **now** — query the armed instance ids (parallel per path) and
           add them to the epoch counters *before* opening the Z4 gate, so
           every image written after this batch carries the ids of the
           still-undelivered notifications;
        2. **after visibility** — consume the instances (a fresh query +
           guarded removal) and invoke the fan-out only once the
           triggering write landed in every region (replicate-then-notify,
           inline step ➌ before ➍) — for **every** touched path, armed in
           step 1 or not: a watcher that registers between that query and
           the write landing read the old state and holds a live watch
           only this consume can fire.  Deferring the *consume* — not just
           the delivery — closes the stale-admission race: a reader whose
           cache miss lands between commit and regional visibility joins
           the still-live instance and is therefore notified (and
           invalidated) when it fires; only registrations after the
           consume mint a fresh instance, and those readers already
           observe the replicated data.
        """
        env = fctx.env
        stage = self.service.distribution
        t0 = env.now
        by_path: Dict[str, List[Tuple[str, bool]]] = {}
        path_txid: Dict[str, int] = {}
        for rec in batch:
            for path, op, is_parent in rec["watch_pairs"]:
                by_path.setdefault(path, []).append((op, is_parent))
                if rec["txid"] > path_txid.get(path, 0):
                    path_txid[path] = rec["txid"]
        found = yield from gather(env, [
            self.service.watch_registry.query(fctx.ctx, path)
            for path in by_path])
        fctx.record("watch_query", env.now - t0)

        # One fan-out per triggering txid: the delivered event carries the
        # newest transaction that touched the path in this batch (one-shot
        # watches legally fold multiple changes into one notification).
        txid_shard = {rec["txid"]: rec["shard"] for rec in batch}
        by_txid: Dict[int, List[Tuple[str, List[Tuple[str, bool]], List[str]]]] = {}
        for path, rows in zip(by_path, found):
            armed = armed_instances(rows, by_path[path])
            by_txid.setdefault(path_txid[path], []).append(
                (path, by_path[path], [inst["id"] for _t, _e, inst in armed]))
        for txid in sorted(by_txid):
            entries = by_txid[txid]
            armed_ids = [wid for _p, _pairs, ids in entries for wid in ids]
            if armed_ids:
                yield from self.service.epoch_ledger.add(fctx.ctx, armed_ids)
            env.process(self._fanout_after_visible(txid, txid_shard[txid],
                                                   entries, armed_ids),
                        name=f"fanout:{txid}")

        for shard, txid in newest.items():
            stage.watch_gate.advance(shard, txid)
        return None

    def _fanout_after_visible(self, txid: int, shard: int,
                              entries: List[Tuple[str, List[Tuple[str, bool]], List[str]]],
                              armed_ids: List[str]) -> Generator:
        """Consume + fan out once ``txid`` is visible in every region,
        then clear the epoch counters after delivery (WatchCallback).  The
        wait rides this detached process, so the primary distributor's
        queue keeps draining while slower regions catch up."""
        stage = self.service.distribution
        ctx = self.service.system_ctx
        for region in self.service.config.regions:
            yield from stage.visibility.wait(region, txid)
        triggered: List = []
        for path, pairs, _armed in entries:
            found = yield from self.service.watch_registry.query_consume_ops(
                ctx, path, pairs)
            triggered.extend(found)
        if triggered:
            done = self.service.invoke_watch_fn(triggered, txid, shard=shard,
                                                origin="distributor")
            try:
                yield done
            except Exception:
                pass  # fan-out retried internally; clear regardless
        # The armed ids are what the epoch carries; the consumed instances
        # may differ (a GC sweep or an intervening consume can have
        # replaced them) — clear exactly what was added.
        if armed_ids:
            yield from self.service.epoch_ledger.remove(ctx, armed_ids)
        return None


class DistributionStage:
    """Deployment-side wiring of the distributor: queues, functions,
    visibility and watch-gate boards."""

    def __init__(self, service) -> None:
        self.service = service
        config = service.config
        env = service.cloud.env
        self.visibility = VisibilityBoard(env, config.regions)
        self.watch_gate = GateBoard(env)
        self.logics: Dict[str, DistributorLogic] = {}
        self.queues: Dict[str, Any] = {}
        self.fns: Dict[str, Any] = {}
        primary = config.primary_region
        for region in config.regions:
            logic = DistributorLogic(service, region,
                                     primary=(region == primary))
            # The primary region keeps the bare name; the fan-out scales
            # with the region count by adding one function + queue each.
            suffix = "" if region == primary else f"-{region}"
            stage = service._deploy_stage(
                f"fk-distributor{suffix}", "distributor", logic,
                region=region, queue=f"fk-dist-q{suffix}",
                batch=DISTRIBUTOR_BATCH)
            self.logics[region] = logic
            self.queues[region] = stage.queue
            self.fns[region] = stage.fn

    # ------------------------------------------------------------ publish
    def publish(self, fctx, record: Dict[str, Any]) -> Generator:
        """Append one distribution record to every region's queue (the
        enqueues run in parallel; the leader awaits them so per-path queue
        order follows commit order before the txid is popped)."""
        env = fctx.env
        size_kb = 0.2 + sum(
            len((image or {}).get("data", b"") or b"") / 1024.0
            for _path, image, _is_parent, _op in record["writes"])
        yield from gather(env, [
            queue.send(fctx.ctx, dict(record), group="dist", size_kb=size_kb)
            for queue in self.queues.values()])
        return None

    # ------------------------------------------------------------ visibility
    def mark_visible(self, fctx, region: str, txids: List[int]) -> Generator:
        """One monotone ``replicated_tx`` watermark write per batch, then
        open the in-memory board the client barriers wait on."""
        yield from advance_watermark(
            self.service.system_store, fctx.ctx, replicated_key(region),
            "txid", max(txids))
        self.visibility.mark(region, txids)
        return None

    # ------------------------------------------------------------ accounting
    def stats(self) -> Dict[str, float]:
        return {
            "batches": sum(lg._batches.value for lg in self.logics.values()),
            "coalesced_writes": sum(
                lg._coalesced.value for lg in self.logics.values()),
            "watermarks": dict(self.visibility.watermark),
        }
