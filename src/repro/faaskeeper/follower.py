"""The follower function (Algorithm 1).

A FIFO queue per client session invokes the follower with a batch of
requests.  Every write request is a transaction of one or more member
operations — a lone create/set_data/delete is the one-member case and
takes no other route.  For each request the follower

➀ acquires timed locks on every touched node (the parent too for
  create/delete — those operations touch the parent's child list; a
  sequential create locks its suffixed path once staging has named it),
➁ validates and stages each member against the locked system-node images,
  later members seeing the staged effects of earlier ones, folding the
  members once into the *write set*: one record per touched path, in
  first-touch order (merged attribute sets, first-touch storage guards,
  watch triggers),
➂ pushes one message to the coordinator shard's leader FIFO queue — the
  write set, the per-member results and each written path's replicated
  image, projected from its final staged node — obtaining the transaction
  id (the queue's monotone sequence number), and
➃ commits every write-set record in a single storage transaction fused with
  the lock releases, conditional on every lock still carrying the
  follower's timestamp (one that expired is refused once it is re-taken
  or cleared by the leader's TryCommit): the request commits or fails
  atomically (Z1), and a refused request is delivered again.

Steps ➀/➁ of a request may overlap with steps ➂/➃ of its predecessor in a
real deployment; requests of one session are never reordered (Z2).

The write-path constants below are fixed by the paper's design rather
than deployment knobs: the lock lease, the node-size bound and the queue
batch sizes.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..cloud.expressions import (Attr, ListAppend, ListRemove, Remove, Set,
                                 UpdateAction)
from ..cloud.errors import ConditionFailed, Redeliver
from ..primitives.locks import LockHandle
from .exceptions import BadArgumentsError
from .layout import (SYSTEM_NODES, SYSTEM_SESSIONS, new_system_node,
                     user_image_from_system)
from .model import (
    DeleteOp,
    Operation,
    Request,
    Response,
    acl_allows,
    node_name,
    operation_from_dict,
    parent_path,
)

__all__ = ["FollowerLogic", "commit_updates"]

#: Lock-acquisition retry policy for contended nodes.
LOCK_RETRIES = 60
LOCK_BACKOFF_MS = 30.0
#: Lock lease: a lock older than this is expired — a new holder may take
#: it and the leader may TryCommit on the holder's behalf, clearing it; the
#: holder's own commit is refused only once either has happened.
LOCK_MAX_HOLD_MS = 2_000.0
#: Largest node data a write may carry: the queue payload bound (Section 4.4).
MAX_NODE_SIZE_KB = 250.0
#: Requests one follower / leader / distributor invocation drains from its
#: FIFO queue.
FOLLOWER_BATCH = 10
LEADER_BATCH = 10
DISTRIBUTOR_BATCH = 10
#: Deliveries of one session-queue message before it is dropped and its
#: request failed (the queue's redelivery cap).
FOLLOWER_MAX_RECEIVE = 5


def commit_updates(rec: Dict[str, Any], txid: int) -> List[UpdateAction]:
    """The storage updates that commit one write-set record under ``txid``:
    its merged attribute sets, the txid stamps of a node write (a node
    created here keeps only the ACL its create set), and the txid appended
    to the path's pending list.  The guards (and the follower's unlock)
    stay with each caller: the follower's step ➃ and the leader's
    TryCommit."""
    updates: List[UpdateAction] = [Set(k, v) for k, v in rec["sets"].items()]
    if rec["node"]:
        updates.append(Set("modified_tx", txid))
        if rec["created"]:
            updates.append(Set("created_tx", txid))
            if "acl" not in rec["sets"]:
                updates.append(Remove("acl"))  # a tombstone's stale ACL
    if rec["node"] or rec["sets"]:
        updates.append(ListAppend("transactions", [txid]))
    return updates


def _touch(write_set: Dict[str, Dict[str, Any]], path: str) -> Dict[str, Any]:
    """``path``'s write-set record, made on its first touch.  A record holds
    the commit half — merged ``sets``, ``node`` (written as a node: gets
    txid stamps), ``created`` (final state created here) and the storage
    guards ``prev_version`` / ``parent_prev_cversion`` once observed — and
    the ``(op, is_parent)`` watch ``triggers`` of every member that wrote
    the path."""
    rec = write_set.get(path)
    if rec is None:
        rec = write_set[path] = {"sets": {}, "node": False, "created": False,
                                 "triggers": []}
    return rec


def _replicated_images(write_set: Dict[str, Dict[str, Any]],
                       overlay: Dict[str, Dict[str, Any]],
                       written: Dict[str, Optional[bytes]]
                       ) -> List[Tuple[str, Dict[str, Any], bool, str]]:
    """The user-store write of every written path, in first-write order:
    ``(path, image, is_parent, op)`` where ``image`` projects the path's
    final staged node plus the last data written, ``is_parent`` marks a
    path only ever written as a parent (a metadata update around the data
    already held) and ``op == "create"`` a node created here (the writer
    stamps ``created_tx``)."""
    writes = []
    for path, data in written.items():
        rec, node = write_set[path], overlay[path]
        if not node.get("exists"):
            writes.append((path, {"path": path, "deleted": True}, False,
                           "delete"))
            continue
        image = user_image_from_system(path, node)
        if data is not None:
            image["data"] = data
        if rec["node"]:
            op = "create" if rec["created"] else "set_data"
        else:
            op = rec["triggers"][-1][0]  # its last member's create/delete
        writes.append((path, image, not rec["node"], op))
    return writes


class FollowerLogic:
    """Behaviour of the follower function, bound to one deployment."""

    def __init__(self, service) -> None:
        self.service = service

    # ------------------------------------------------------------ handler
    def handler(self, fctx, batch: List[Dict[str, Any]]) -> Generator:
        """Entry point for the queue trigger: a batch of request dicts."""
        for raw in batch:
            body = ({k: v for k, v in raw.items() if not k.startswith("_")}
                    if isinstance(raw, dict) else {})
            try:
                req = Request(**body)
            except TypeError:  # an unknown key, or no ``op``
                req = None
            if req is None or not isinstance(req.ops, list):
                yield from self._refuse(body)
                continue
            yield from self.process(fctx, req, redelivered=raw.get("_redelivered", False))
        return None

    def _refuse(self, body: Dict[str, Any]) -> Generator:
        """A malformed envelope is answered ``bad_arguments``, every member
        rolled back, before anything is locked; one that does not name its
        session and rid is dropped, as there is no one to answer."""
        session, rid, ops = body.get("session"), body.get("rid"), body.get("ops")
        if isinstance(session, str) and isinstance(rid, int):
            req = Request(session=session, rid=rid, op="write",
                          ops=ops if isinstance(ops, list) else [])
            yield from self._fail(req, "bad_arguments", culprit=-1)
        return None

    def process(self, fctx, req: Request, redelivered: bool = False) -> Generator:
        if req.op == "close_session":
            yield from self._close_session(fctx, req)
        elif req.op == "write":
            redelivered = redelivered and req.rid >= 0
            if redelivered and (yield from self._committed(fctx, req)):
                return None  # committed; the leader will notify
            yield from self._multi_op(fctx, req, redelivered)
        else:  # pragma: no cover - defensive
            yield from self.service.notify_response(
                Response(session=req.session, rid=req.rid, ok=False,
                         error="bad_arguments"))
        return None

    def _committed(self, fctx, req: Request) -> Generator[Any, Any, bool]:
        """Whether a redelivered request is already committed (the crash
        came after step ➃, or TryCommit committed it): the per-session
        watermark decides."""
        sess = yield from self.service.system_store.get_item(
            fctx.ctx, SYSTEM_SESSIONS, req.session)
        return sess is not None and sess.get("last_rid", 0) >= req.rid

    # ------------------------------------------------------------ locking
    def _acquire(self, fctx, paths: List[str]
                 ) -> Generator[Any, Any, Optional[Dict[str, LockHandle]]]:
        """Lock all paths (shallowest first); None when contention persists."""
        lock = self.service.node_lock
        ordered = sorted(set(paths), key=lambda p: (p.count("/"), p))
        for _attempt in range(LOCK_RETRIES):
            handles: Dict[str, LockHandle] = {}
            ok = True
            for path in ordered:
                handle = yield from lock.acquire(fctx.ctx, path)
                if handle is None:
                    ok = False
                    break
                handles[path] = handle
            if ok:
                return handles
            for handle in handles.values():
                yield from lock.release(fctx.ctx, handle)
            yield LOCK_BACKOFF_MS * (0.5 + self.service.rng.random())
        return None

    def _release_all(self, fctx, handles: Dict[str, LockHandle]) -> Generator:
        for handle in handles.values():
            yield from self.service.node_lock.release(fctx.ctx, handle)
        return None

    # ------------------------------------------------------------ helpers
    @staticmethod
    def _node_exists(image: Optional[Dict[str, Any]]) -> bool:
        return bool(image) and image.get("exists") is True

    def _fail(self, req: Request, error: str,
              culprit: Optional[int] = None) -> Generator:
        """All-or-nothing rejection: per-op typed outcomes, nothing commits.
        ``culprit`` is the failing op's index (None = envelope-wide error,
        every member carries it; -1 = a malformed envelope, no member is
        at fault); the other members report ``rolled_back``."""
        results = []
        for i, d in enumerate(req.ops):
            code = error if culprit is None or i == culprit else "rolled_back"
            d = d if isinstance(d, dict) else {}  # a malformed member
            results.append({"ok": False, "op": d.get("op"),
                            "path": d.get("path"), "error": code})
        yield from self.service.notify_response(
            Response(session=req.session, rid=req.rid, ok=False, error=error,
                     results=results))
        return None

    # ------------------------------------------------------------ write path
    def _multi_op(self, fctx, req: Request,
                  redelivered: bool = False) -> Generator:
        """Algorithm 1 for a write envelope of one or more members.

        The four steps run once for the whole envelope: lock every touched
        node, validate-and-stage each member against a running overlay
        (later members see earlier members' staged effects, as in
        ZooKeeper's multi), push ONE message to the coordinator shard's
        leader queue (one txid, one leader invocation for N writes — the
        cost lever of the paper's per-invocation model), and commit
        everything in ONE storage transaction fused with the lock releases
        (Z1 for the whole envelope).
        """
        env = fctx.env
        if not req.ops:
            yield from self._fail(req, "bad_arguments")
            return None
        ops = []
        for i, d in enumerate(req.ops):
            try:
                ops.append(operation_from_dict(d))
            except BadArgumentsError:
                yield from self._fail(req, "bad_arguments", culprit=i)
                return None

        # ➀ lock every touched node (parents too for create/delete); a
        # sequential create's unsuffixed prefix is no node: staging never
        # reads it, and the parent lock already serializes ``cseq``
        lock_paths = []
        for i, op in enumerate(ops):
            if op.OP in ("create", "delete"):
                if op.path == "/":
                    yield from self._fail(req, "bad_arguments", culprit=i)
                    return None
                lock_paths.append(parent_path(op.path))
            if not getattr(op, "sequence", False):
                lock_paths.append(op.path)
        t0 = env.now
        handles = yield from self._acquire(fctx, lock_paths)
        fctx.record("lock", env.now - t0)
        if handles is None:
            yield from self._fail(req, "system_busy")
            return None
        if redelivered and (yield from self._committed(fctx, req)):
            # TryCommit committed the crashed attempt's push, clearing the
            # locks we waited on: nothing to push a second time.
            yield from self._release_all(fctx, handles)
            return None

        # ➁ validate + stage each member against the overlay of locked
        # images, folding it into the write set: one record per touched
        # path, in first-touch order
        overlay = {p: dict(h.item or {}) for p, h in handles.items()}
        write_set: Dict[str, Dict[str, Any]] = {}
        written: Dict[str, Optional[bytes]] = {}  # last data, by first write
        results: List[Dict[str, Any]] = []
        session_updates: Dict[str, List] = {}  # session record -> updates
        for i, op in enumerate(ops):
            staged = self._validate_and_stage(req.session, op, overlay)
            if isinstance(staged, str):  # error code: roll the batch back
                yield from self._release_all(fctx, handles)
                yield from self._fail(req, staged, culprit=i)
                return None
            path, sets, parent_sets, ephemeral_update = staged
            node = overlay.setdefault(path, {})
            rec = _touch(write_set, path)
            # Storage guards come from a path's FIRST touch only: later
            # members observe overlay state no item holds yet (a create's
            # guard is its parent's child-list version).
            rec.setdefault("prev_version", None if op.OP == "create"
                           else node.get("version", 0))
            if sets is None:  # a check: a guard, nothing staged
                results.append({"op": "check", "path": path,
                                "version": node.get("version", 0)})
                continue
            if ephemeral_update is not None:
                # An ephemeral's bookkeeping lives in its OWNER's session
                # record, which need not be the caller's.
                owner, update = ephemeral_update
                session_updates.setdefault(owner, []).append(update)
            rec["node"] = True
            if op.OP != "set_data":
                rec["created"] = op.OP == "create"
            rec["sets"].update(sets)
            node.update(sets)
            if op.OP == "create" and "acl" not in sets:
                rec["sets"].pop("acl", None)  # an earlier member's create
                node.pop("acl", None)         # or a tombstone's ACL
            rec["triggers"].append((op.OP, False))
            written[path] = getattr(op, "data", None)
            if parent_sets is not None:
                parent = parent_path(path)
                prec = _touch(write_set, parent)
                if not prec["created"]:
                    # A parent created in this batch has no stored child
                    # list to guard.
                    prec.setdefault("parent_prev_cversion",
                                    overlay[parent].get("cversion", 0))
                prec["sets"].update(parent_sets)
                overlay[parent].update(parent_sets)
                prec["triggers"].append((op.OP, True))
                written.setdefault(parent, None)
            results.append({"op": op.OP, "path": path,
                            "version": sets.get("version", 0)})

        # A sequential create staged a suffixed final path: it needs its
        # own lock before commit.
        for path in write_set:
            if path not in handles:
                handle = yield from self.service.node_lock.acquire(
                    fctx.ctx, path)
                if handle is None:  # pragma: no cover - fresh path, never held
                    yield from self._release_all(fctx, handles)
                    yield from self._fail(req, "system_busy")
                    return None
                handles[path] = handle

        commit_paths = [p for p, rec in write_set.items()
                        if rec["node"] or rec["sets"]]
        # Per-session dedup watermark (one transaction may touch an item
        # only once, so it merges with any ephemeral-tracking update).  It
        # also guards this commit and the leader's TryCommit of it: a
        # request commits once.
        dedup = None
        if req.rid >= 0:
            session_updates.setdefault(req.session, []).append(
                Set("last_rid", req.rid))
            dedup = Attr("last_rid").not_exists() | (
                Attr("last_rid") < req.rid)
        session_ops = [(SYSTEM_SESSIONS, key, updates,
                        dedup if key == req.session else None)
                       for key, updates in session_updates.items()]

        lock = self.service.node_lock
        # A guard-only envelope (checks alone) never reaches the leader:
        # nothing replicates, so verify under the locks, move the dedup
        # watermark and answer directly from the follower.
        if not commit_paths:
            ops_list = [(SYSTEM_NODES, path, [lock.UNLOCK],
                         lock.held_by(handle.timestamp))
                        for path, handle in handles.items()]
            try:
                yield from self.service.system_store.transact_update(
                    fctx.ctx, ops_list + session_ops)
            except ConditionFailed:
                yield from self._fail(req, "system_failure")
                return None
            yield from self.service.notify_response(
                Response(session=req.session, rid=req.rid, ok=True,
                         results=[dict(r, ok=True, txid=0) for r in results]))
            return None

        # ➂ ONE push to the coordinator shard's leader queue (txid = the
        # queue's sequence number, globally monotone across shards via the
        # shared sequence): one txid and one leader invocation amortized
        # over the whole envelope
        t0 = env.now
        # CPU cost of encoding the payload (base64 in the real system);
        # this is where ARM's data-processing penalty shows up.
        yield fctx.compute(base_ms=0.2, payload_kb=req.size_kb, per_kb_ms=0.05)
        leader_msg = {
            "session": req.session, "rid": req.rid, "path": commit_paths[0],
            "results": results, "write_set": write_set,
            "session_ops": session_ops,
            "writes": _replicated_images(write_set, overlay, written),
            "payload_kb": sum(len(getattr(op, "data", b"")) / 1024.0
                              for op in ops),
        }
        # With several shards, the queue that accepts the push stamps it
        # with the session's next fence (``SharedSequence.stamp``).
        shard = self.service.multi_shard_of(
            [p for p, rec in write_set.items() if rec["node"]])
        txid = yield from self.service.leader_queues[shard].send(
            fctx.ctx, leader_msg, size_kb=req.size_kb)
        fctx.record("push", env.now - t0)

        # ➃ ONE atomic commit + unlock: every touched path plus the session
        # records, all conditioned on the lock leases (envelope-wide Z1)
        t0 = env.now
        ops_list = [(SYSTEM_NODES, path,
                     commit_updates(rec, txid) + [lock.UNLOCK],
                     lock.held_by(handles[path].timestamp))
                    for path, rec in write_set.items()]
        try:
            yield from self.service.system_store.transact_update(
                fctx.ctx, ops_list + session_ops)
        except ConditionFailed:
            # A lease expired mid-request and its lock was re-taken or
            # cleared by TryCommit: nothing commits (Z1); the request's next
            # delivery, or the queue's drop, answers it.
            fctx.record("commit", env.now - t0)
            raise Redeliver(f"lease lost committing rid {req.rid}")
        fctx.record("commit", env.now - t0)
        # The request is now committed (Z1); the leader replicates it to the
        # user-visible store and notifies the client.
        return None

    # ------------------------------------------------------------ staging
    def _validate_and_stage(self, session: str, op: Operation,
                            overlay: Dict[str, Dict[str, Any]]):
        """Validate one member against the (overlaid) locked images.

        Returns an error code, or ``(path, sets, parent_sets,
        ephemeral_update)``: the member's final path, the attribute sets it
        stages on that node and on its parent (None for a check, which
        stages nothing, and for a set_data's parent), and — when the member
        creates or deletes an ephemeral — the ``(owner, update)`` for the
        owning session's record.
        """
        if len(getattr(op, "data", b"")) / 1024.0 > MAX_NODE_SIZE_KB:
            return "bad_arguments"  # queue payload bound, any data-carrying op
        node = overlay.get(op.path, {})

        if op.OP == "check":
            if not self._node_exists(node):
                return "no_node"
            if not acl_allows(node.get("acl"), "read", session):
                return "access_denied"
            if op.version >= 0 and node.get("version", 0) != op.version:
                return "bad_version"
            return op.path, None, None, None

        if op.OP == "set_data":
            if not self._node_exists(node):
                return "no_node"
            if not acl_allows(node.get("acl"), "write", session):
                return "access_denied"
            if op.version >= 0 and node.get("version", 0) != op.version:
                return "bad_version"
            return op.path, {"data_len": len(op.data),
                             "version": node.get("version", 0) + 1}, None, None

        parent = overlay[parent_path(op.path)]
        if op.OP == "create":
            if not self._node_exists(parent):
                return "no_node"
            if parent.get("ephemeral_owner"):
                return "no_children_for_ephemerals"
            if not acl_allows(parent.get("acl"), "create", session):
                return "access_denied"
            final_path = op.path
            parent_sets: Dict[str, Any] = {
                "cversion": parent.get("cversion", 0) + 1,
            }
            if op.sequence:
                seq = parent.get("cseq", 0)
                final_path = f"{op.path}{seq:010d}"
                parent_sets["cseq"] = seq + 1
            if self._node_exists(node) and final_path == op.path:
                return "node_exists"
            name = node_name(final_path)
            children = list(parent.get("children", []))
            if name in children:  # pragma: no cover - defensive
                return "node_exists"
            children.append(name)
            parent_sets["children"] = children
            owner = session if op.ephemeral else None
            sets = new_system_node(len(op.data), created_tx=0,
                                   ephemeral_owner=owner)
            sets.pop("transactions")  # managed by the commit itself
            sets.pop("applied_tx")    # the leader's watermark must survive
            if op.acl:
                sets["acl"] = dict(op.acl)
            return final_path, sets, parent_sets, (
                (session, ListAppend("ephemeral", [final_path]))
                if op.ephemeral else None)

        if op.OP == "delete":
            if not self._node_exists(node):
                return "no_node"
            if not acl_allows(node.get("acl"), "delete", session):
                return "access_denied"
            if op.version >= 0 and node.get("version", 0) != op.version:
                return "bad_version"
            if node.get("children"):
                return "not_empty"
            name = node_name(op.path)
            parent_sets = {
                "children": [c for c in parent.get("children", [])
                             if c != name],
                "cversion": parent.get("cversion", 0) + 1,
            }
            owner = node.get("ephemeral_owner")
            return op.path, {"exists": False, "data_len": 0}, parent_sets, (
                (owner, ListRemove("ephemeral", [op.path])) if owner else None)

        return "bad_arguments"  # pragma: no cover - defensive

    # ------------------------------------------------------------ sessions
    def _close_session(self, fctx, req: Request) -> Generator:
        """Session teardown: delete owned ephemerals, drop the session."""
        sessions = self.service.system_store
        item = yield from sessions.get_item(fctx.ctx, SYSTEM_SESSIONS, req.session)
        ephemerals = item.get("ephemeral", []) if item is not None else []
        # Deepest paths first so children go before parents.
        for path in sorted(ephemerals, key=lambda p: -p.count("/")):
            yield from self._multi_op(fctx, Request.from_operations(
                req.session, -1, [DeleteOp(path)]))
        yield from sessions.delete_item(fctx.ctx, SYSTEM_SESSIONS, req.session)
        # rid < 0 marks a teardown the client never asked for: the
        # heartbeat evictor's close-session request.
        self.service.on_session_closed(req.session, evicted=req.rid < 0)
        if req.rid >= 0:
            yield from self.service.notify_response(
                Response(session=req.session, rid=req.rid, ok=True))
        return None
