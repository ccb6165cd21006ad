"""The follower function (Algorithm 1).

A FIFO queue per client session invokes the follower with a batch of
requests.  Every write request is a transaction of one or more member
operations — a lone create/set_data/delete is the one-member case and
takes no other route.  For each request the follower

➀ acquires timed locks on every touched node (the parent too for
  create/delete — those operations touch the parent's child list),
➁ validates and stages each member against the locked system-node images,
  later members seeing the staged effects of earlier ones,
➂ pushes one message carrying the staged changes to the coordinator
  shard's leader FIFO queue, obtaining the transaction id (the queue's
  monotone sequence number), and
➃ commits every staged change in a single storage transaction fused with
  the lock releases, conditional on all leases still being valid: the
  request commits or fails atomically (Z1).

Steps ➀/➁ of a request may overlap with steps ➂/➃ of its predecessor in a
real deployment; requests of one session are never reordered (Z2).

The write-path constants below are fixed by the paper's design rather
than deployment knobs: the lock lease, the node-size bound and the queue
batch sizes.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..cloud.expressions import (
    Attr,
    ListAppend,
    ListRemove,
    Remove,
    Set,
)
from ..cloud.errors import ConditionFailed
from ..primitives.locks import LockHandle
from .exceptions import BadArgumentsError
from .layout import SYSTEM_NODES, SYSTEM_SESSIONS, new_system_node
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

__all__ = ["FollowerLogic", "merge_multi_commit", "multi_replication_plan"]

#: Lock-acquisition retry policy for contended nodes.
LOCK_RETRIES = 60
LOCK_BACKOFF_MS = 30.0
#: Lock lease: a lock older than this is expired — its holder's commit is
#: refused and the leader may TryCommit on the holder's behalf.
LOCK_MAX_HOLD_MS = 2_000.0
#: Largest node data a write may carry: the queue payload bound (Section 4.4).
MAX_NODE_SIZE_KB = 250.0
#: Requests one follower / leader / distributor invocation drains from its
#: FIFO queue.
FOLLOWER_BATCH = 10
LEADER_BATCH = 10
DISTRIBUTOR_BATCH = 10


def merge_multi_commit(subs: List[Dict[str, Any]]):
    """Fold an envelope's staged sub-operations into one per-path update record.

    A storage transaction may touch each item only once, so every path's
    attribute sets are merged in op order (later sets win — the staged
    values were produced against the running overlay, so the last one is
    the final state).  Returns ``(order, merged)`` where ``order`` lists
    the touched paths in first-touch order and ``merged[path]`` holds::

        {"sets":    {attr: value},   # merged attribute sets
         "node":    bool,            # written as a node (gets txid stamps)
         "created": bool,            # final state is a node created here
         "prev_version":         data version the FIRST touch observed,
         "parent_prev_cversion": child-list version the first parent
                                 touch observed}

    The ``prev_*`` fields are storage preconditions (TryCommit guards), so
    only the path's FIRST touch may contribute them: later members observe
    overlay state that does not exist in storage yet (a create's follower
    leaves ``prev_version`` None — the parent's child-list guard covers it).

    Shared by the follower (commit ➃) and the leader (TryCommit on behalf
    of a dead follower), so both sides apply the identical transaction.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    touched: set = set()

    def record(path: str) -> Dict[str, Any]:
        if path not in merged:
            merged[path] = {"sets": {}, "node": False, "created": False,
                            "prev_version": None,
                            "parent_prev_cversion": None}
            order.append(path)
        return merged[path]

    for sub in subs:
        rec = record(sub["path"])
        if sub["path"] not in touched:
            touched.add(sub["path"])
            rec["prev_version"] = sub.get("prev_version")
        if sub["op"] == "check":
            continue
        rec["node"] = True
        rec["sets"].update(sub["commit_sets"])
        if sub["op"] == "create":
            rec["created"] = True
        elif sub["op"] == "delete":
            rec["created"] = False
        if sub.get("parent"):
            prec = record(sub["parent"])
            prec["sets"].update(sub["parent_sets"])
            if prec["parent_prev_cversion"] is None and not prec["created"]:
                # Only store-valid observations become guards: a parent
                # created earlier in this batch reports its overlay
                # cversion, which no storage item carries yet.
                prec["parent_prev_cversion"] = sub["parent_prev_cversion"]
    return order, merged


def multi_replication_plan(subs: List[Dict[str, Any]]
                           ) -> List[Tuple[str, Dict[str, Any], bool, str]]:
    """Per-path final user-store actions of a committed envelope.

    Several members of one transaction may touch the same path (set after
    set, create then set, a node that is also a sibling's parent): the
    user store needs exactly one write per path, carrying the LAST staged
    node image merged with any later parent-side metadata.  Staged images
    are produced against the follower's running overlay, so the last image
    for a path already reflects every earlier member's effect.

    Returns ``[(path, image, is_parent, op)]`` in first-touch order;
    ``op == "create"`` marks a node whose final state was created by this
    multi (the leader stamps ``created_tx``), ``is_parent`` marks
    metadata-only updates.

    The follower computes the plan once at staging time and hands it to
    the leader inside the envelope (``replication_plan``), so neither the
    leader nor the distributor stage re-derives it per delivery.
    """
    order: List[str] = []
    state: Dict[str, List[Any]] = {}  # path -> [image, is_parent, op]
    for sub in subs:
        if sub["op"] == "check":
            continue
        entries = [(sub["path"], sub["node_image"], False)]
        if sub.get("parent"):
            entries.append((sub["parent"], sub["parent_image"], True))
        for path, image, is_parent in entries:
            cur = state.get(path)
            if cur is None:
                order.append(path)
                state[path] = [dict(image), is_parent, sub["op"]]
            elif not is_parent:
                if image.get("deleted"):
                    state[path] = [dict(image), False, "delete"]
                else:
                    was_created = (not cur[1] and cur[2] == "create"
                                   and not cur[0].get("deleted"))
                    op = ("create" if sub["op"] == "create" or was_created
                          else sub["op"])
                    state[path] = [dict(image), False, op]
            else:
                img, was_parent, op = cur
                if was_parent or img.get("deleted"):
                    state[path] = [dict(image), True, sub["op"]]
                else:
                    # Graft the newer child-list metadata onto the member's
                    # node image: the full image (with data) still wins.
                    img = dict(img)
                    img["children"] = list(image.get("children", []))
                    img["cversion"] = image.get("cversion", 0)
                    state[path] = [img, False, op]
    return [(p, state[p][0], state[p][1], state[p][2]) for p in order]


class FollowerLogic:
    """Behaviour of the follower function, bound to one deployment."""

    def __init__(self, service) -> None:
        self.service = service

    # ------------------------------------------------------------ handler
    def handler(self, fctx, batch: List[Dict[str, Any]]) -> Generator:
        """Entry point for the queue trigger: a batch of request dicts."""
        for raw in batch:
            req = Request(**{k: v for k, v in raw.items() if not k.startswith("_")})
            yield from self.process(fctx, req, redelivered=raw.get("_redelivered", False))
        return None

    def process(self, fctx, req: Request, redelivered: bool = False) -> Generator:
        if req.op == "close_session":
            yield from self._close_session(fctx, req)
        elif req.op == "write":
            if redelivered and req.rid >= 0:
                # A redelivered request may already be committed (the crash
                # happened after step ➃): the per-session watermark decides.
                sess = yield from self.service.system_store.get_item(
                    fctx.ctx, SYSTEM_SESSIONS, req.session)
                if sess is not None and sess.get("last_rid", 0) >= req.rid:
                    return None  # committed; the leader will notify
            yield from self._multi_op(fctx, req)
        else:  # pragma: no cover - defensive
            yield from self.service.notify_response(
                Response(session=req.session, rid=req.rid, ok=False,
                         error="bad_arguments"))
        return None

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
            yield fctx.env.timeout(
                LOCK_BACKOFF_MS * (0.5 + self.service.rng.random()))
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
        ``culprit`` is the failing op's index (None = envelope-wide error);
        the other members report ``rolled_back``."""
        results = []
        for i, d in enumerate(req.ops):
            code = error if culprit is None or i == culprit else "rolled_back"
            results.append({"ok": False, "op": d.get("op"),
                            "path": d.get("path"), "error": code})
        yield from self.service.notify_response(
            Response(session=req.session, rid=req.rid, ok=False, error=error,
                     results=results))
        return None

    # ------------------------------------------------------------ write path
    def _multi_op(self, fctx, req: Request) -> Generator:
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
        try:
            ops = [operation_from_dict(d) for d in req.ops]
        except BadArgumentsError:
            ops = []
        if not ops:
            yield from self._fail(req, "bad_arguments")
            return None

        # ➀ lock every touched node (parents too for create/delete)
        lock_paths = []
        for i, op in enumerate(ops):
            if op.OP in ("create", "delete"):
                if op.path == "/":
                    yield from self._fail(req, "bad_arguments", culprit=i)
                    return None
                lock_paths.append(parent_path(op.path))
            lock_paths.append(op.path)
        t0 = env.now
        handles = yield from self._acquire(fctx, lock_paths)
        fctx.record("lock", env.now - t0)
        if handles is None:
            yield from self._fail(req, "system_busy")
            return None

        # ➁ validate + stage against the overlay of locked images
        overlay = {p: dict(h.item or {}) for p, h in handles.items()}
        subs: List[Dict[str, Any]] = []
        results: List[Dict[str, Any]] = []
        session_updates: Dict[str, List] = {}  # session record -> updates
        for i, op in enumerate(ops):
            node = overlay.get(op.path, {})
            parent = (overlay.get(parent_path(op.path))
                      if op.OP in ("create", "delete") else None)
            staged = self._validate_and_stage(req.session, op, node, parent)
            if isinstance(staged, str):  # error code: roll the batch back
                yield from self._release_all(fctx, handles)
                yield from self._fail(req, staged, culprit=i)
                return None
            sub, ephemeral_update = staged
            subs.append(sub)
            if op.OP == "check":  # a guard, nothing staged
                results.append({"op": "check", "path": op.path,
                                "version": sub["prev_version"]})
                continue
            if ephemeral_update is not None:
                # An ephemeral's bookkeeping lives in its OWNER's session
                # record, which need not be the caller's.
                owner, update = ephemeral_update
                session_updates.setdefault(owner, []).append(update)
            overlay.setdefault(sub["path"], {}).update(sub["commit_sets"])
            if sub["parent"]:
                overlay[sub["parent"]].update(sub["parent_sets"])
            results.append({"op": op.OP, "path": sub["path"],
                            "version": sub["commit_sets"].get("version", 0)})
        fctx.crash_point("after_validate")

        # A sequential create staged a suffixed final path: it needs its
        # own lock before commit (the prefix lock is released at commit).
        for sub in subs:
            if sub["op"] == "create" and sub["path"] not in handles:
                handle = yield from self.service.node_lock.acquire(
                    fctx.ctx, sub["path"])
                if handle is None:  # pragma: no cover - fresh path, never held
                    yield from self._release_all(fctx, handles)
                    yield from self._fail(req, "system_busy")
                    return None
                handles[sub["path"]] = handle

        order, merged = merge_multi_commit(subs)
        commit_paths = [p for p in order
                        if merged[p]["node"] or merged[p]["sets"]]
        # Per-session dedup watermark (one transaction may touch an item
        # only once, so it merges with any ephemeral-tracking update).
        if req.rid >= 0:
            session_updates.setdefault(req.session, []).append(
                Set("last_rid", req.rid))
        session_ops = [(SYSTEM_SESSIONS, key, updates, None)
                       for key, updates in session_updates.items()]

        # A guard-only envelope (checks alone) never reaches the leader:
        # nothing replicates, so verify under the locks, move the dedup
        # watermark and answer directly from the follower.
        if not commit_paths:
            ops_list = [(SYSTEM_NODES, path, [Remove("lock")],
                         Attr("lock.ts") == handle.timestamp)
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
            "subs": subs, "results": results, "commit_paths": commit_paths,
            "replication_plan": multi_replication_plan(subs),
        }
        board = self.service.fence_board
        shard = self.service.multi_shard_of(
            [p for p in order if merged[p]["node"]])
        if board is not None:
            # Session-sequence fence: pushes of one session are serialized
            # by its FIFO queue, so fences follow request order; the shard
            # leaders use them to keep cross-shard writes in session order.
            leader_msg["fence"] = board.issue(req.session)
            leader_msg["shard"] = shard
        txid = yield from self.service.leader_queues[shard].send(
            fctx.ctx, leader_msg, group="updates", size_kb=req.size_kb)
        fctx.record("push", env.now - t0)
        fctx.crash_point("after_push")

        # ➃ ONE atomic commit + unlock: every touched path plus the session
        # records, all conditioned on the lock leases (envelope-wide Z1)
        t0 = env.now
        ops_list = []
        for path in order:
            rec = merged[path]
            updates = [Set(k, v) for k, v in rec["sets"].items()]
            if rec["node"]:
                updates.append(Set("modified_tx", txid))
                if rec["created"]:
                    updates.append(Set("created_tx", txid))
            if path in commit_paths:
                updates.append(ListAppend("transactions", [txid]))
            updates.append(Remove("lock"))
            ops_list.append((SYSTEM_NODES, path, updates,
                             Attr("lock.ts") == handles[path].timestamp))
        for path, handle in handles.items():
            if path not in merged:  # e.g. a sequence create's prefix lock
                ops_list.append((SYSTEM_NODES, path, [Remove("lock")],
                                 Attr("lock.ts") == handle.timestamp))
        try:
            yield from self.service.system_store.transact_update(
                fctx.ctx, ops_list + session_ops)
        except ConditionFailed:
            # A lease expired mid-request: the leader decides (TryCommit or
            # reject) — the follower must not touch the nodes, and never
            # commits partially (Z1).
            fctx.record("commit", env.now - t0)
            return None
        fctx.record("commit", env.now - t0)
        fctx.crash_point("after_commit")
        # The request is now committed (Z1); the leader replicates it to the
        # user-visible store and notifies the client.
        return None

    # ------------------------------------------------------------ staging
    def _validate_and_stage(
        self, session: str, op: Operation,
        node: Dict[str, Any],
        parent: Optional[Dict[str, Any]],
    ):
        """Validate one member against the (overlaid) locked images.

        Returns an error code, or ``(sub, ephemeral_update)``: the staged
        sub-operation the leader message carries, and — when the member
        creates or deletes an ephemeral — the ``(owner, update)`` for the
        owning session's record.  A ``check`` op stages nothing but its
        observed version.
        """
        if len(getattr(op, "data", b"")) / 1024.0 > MAX_NODE_SIZE_KB:
            return "bad_arguments"  # queue payload bound, any data-carrying op

        if op.OP == "check":
            if not self._node_exists(node):
                return "no_node"
            if not acl_allows(node.get("acl"), "read", session):
                return "access_denied"
            if op.version >= 0 and node.get("version", 0) != op.version:
                return "bad_version"
            return {"op": "check", "path": op.path,
                    "prev_version": node.get("version", 0)}, None

        if op.OP == "set_data":
            if not self._node_exists(node):
                return "no_node"
            if not acl_allows(node.get("acl"), "write", session):
                return "access_denied"
            if op.version >= 0 and node.get("version", 0) != op.version:
                return "bad_version"
            new_version = node.get("version", 0) + 1
            image = {
                "path": op.path,
                "data": op.data,
                "version": new_version,
                "cversion": node.get("cversion", 0),
                "created_tx": node.get("created_tx", 0),
                "children": list(node.get("children", [])),
                "ephemeral_owner": node.get("ephemeral_owner"),
            }
            if node.get("acl"):
                image["acl"] = dict(node["acl"])
            sub = {
                "op": "set_data", "path": op.path, "parent": None,
                "node_image": image, "parent_image": None,
                "commit_sets": {"data_len": len(op.data),
                                "version": new_version},
                "parent_sets": {},
                "prev_version": node.get("version", 0),
                "parent_prev_cversion": None,
            }
            return sub, None

        if op.OP == "create":
            assert parent is not None
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
            commit_sets = new_system_node(len(op.data), created_tx=0,
                                          ephemeral_owner=owner)
            commit_sets.pop("transactions")  # managed by the commit itself
            commit_sets.pop("applied_tx")    # the leader's watermark must survive
            image = {
                "path": final_path, "data": op.data, "version": 0,
                "cversion": 0, "created_tx": 0, "children": [],
                "ephemeral_owner": owner,
            }
            if op.acl:
                commit_sets["acl"] = dict(op.acl)
                image["acl"] = dict(op.acl)
            sub = {
                "op": "create", "path": final_path,
                "parent": parent_path(final_path),
                "node_image": image,
                "parent_image": self._parent_image(
                    parent_path(final_path), parent, parent_sets),
                "commit_sets": commit_sets, "parent_sets": parent_sets,
                "prev_version": None,
                "parent_prev_cversion": parent.get("cversion", 0),
            }
            return sub, ((session, ListAppend("ephemeral", [final_path]))
                         if op.ephemeral else None)

        if op.OP == "delete":
            assert parent is not None
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
            sub = {
                "op": "delete", "path": op.path,
                "parent": parent_path(op.path),
                "node_image": {"path": op.path, "deleted": True},
                "parent_image": self._parent_image(
                    parent_path(op.path), parent, parent_sets),
                "commit_sets": {"exists": False, "data_len": 0},
                "parent_sets": parent_sets,
                "prev_version": node.get("version", 0),
                "parent_prev_cversion": parent.get("cversion", 0),
            }
            owner = node.get("ephemeral_owner")
            return sub, ((owner, ListRemove("ephemeral", [op.path]))
                         if owner else None)

        return "bad_arguments"  # pragma: no cover - defensive

    @staticmethod
    def _parent_image(path: str, parent: Dict[str, Any],
                      parent_sets: Dict[str, Any]) -> Dict[str, Any]:
        """Metadata-only user-store image of a create/delete's parent."""
        return {
            "path": path,
            "meta_only": True,
            "version": parent.get("version", 0),
            "cversion": parent_sets["cversion"],
            "created_tx": parent.get("created_tx", 0),
            "modified_tx": parent.get("modified_tx", 0),
            "children": parent_sets["children"],
            "ephemeral_owner": parent.get("ephemeral_owner"),
        }

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
