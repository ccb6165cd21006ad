"""Simulated ZooKeeper ensemble (the paper's IaaS baseline, Section 2.2).

A leader and ``n-1`` followers keep full replicas of the node tree.  Writes
are forwarded to the leader, which validates them against its replica,
assigns a monotone ``zxid`` and runs a ZAB-style atomic broadcast: the
transaction commits once a quorum (majority) of servers acknowledged the
proposal, and is then applied by every server in zxid order.  Reads are
served from the session's server-local replica; watches fire when that
server applies a matching transaction.

The model captures what the comparison in Section 5.3 needs:

* sub-millisecond reads from warm in-memory replicas over TCP;
* few-millisecond quorum writes, degrading as servers are added;
* session heartbeats and ephemeral-node expiry;
* per-server utilization accounting (Figure 5) and a fixed VM day-rate
  (Figure 14) instead of pay-as-you-go billing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..cloud.calibration import CloudProfile
from ..cloud.pricing import VM_DAY_RATE
from ..sim.kernel import Environment
from ..faaskeeper.model import (
    EventType,
    WatchType,
    WatchedEvent,
    node_name,
    parent_path,
    validate_path,
)

__all__ = ["ZooKeeperEnsemble", "ZkTxn", "ZkServer"]

#: Propagation delay from commit at the leader to apply at a follower (ms).
FOLLOWER_APPLY_DELAY_MS = 0.7
#: Session-expiry sweep interval at the leader (ms).
SESSION_SWEEP_MS = 1000.0


@dataclass
class ZkTxn:
    """One committed transaction."""

    zxid: int
    op: str                       # create | set_data | delete
    path: str
    data: bytes = b""
    ephemeral_owner: Optional[str] = None
    session: str = ""


def _new_node(data: bytes, zxid: int, owner: Optional[str]) -> Dict[str, Any]:
    return {
        "data": data, "version": 0, "cversion": 0,
        "created_tx": zxid, "modified_tx": zxid,
        "children": [], "cseq": 0, "ephemeral_owner": owner,
    }


class ZkServer:
    """One replica: a node tree plus the server-local watch table."""

    def __init__(self, index: int, env: Environment) -> None:
        self.index = index
        self.env = env
        self.tree: Dict[str, Dict[str, Any]] = {"/": _new_node(b"", 0, None)}
        self.applied_zxid = 0
        self.busy_ms = 0.0          # accumulated service time (Figure 5)
        self.reads = 0
        # watches: path -> type -> list of (session, callback)
        self.watches: Dict[str, Dict[str, List[Tuple[str, Callable]]]] = {}

    # ------------------------------------------------------------ replica ops
    def apply(self, txn: ZkTxn) -> List[Tuple[str, Callable, WatchedEvent]]:
        """Apply a committed transaction; returns watch deliveries due."""
        assert txn.zxid == self.applied_zxid + 1, \
            f"server {self.index}: apply {txn.zxid} after {self.applied_zxid}"
        self.applied_zxid = txn.zxid
        fired: List[Tuple[str, Callable, WatchedEvent]] = []
        if txn.op == "create":
            parent = self.tree[parent_path(txn.path)]
            parent["children"].append(node_name(txn.path))
            parent["cversion"] += 1
            if txn.path.rstrip("0123456789") != txn.path:
                parent["cseq"] += 1
            self.tree[txn.path] = _new_node(txn.data, txn.zxid, txn.ephemeral_owner)
            fired += self._fire(txn.path, WatchType.EXISTS,
                                EventType.NODE_CREATED, txn.zxid)
            fired += self._fire(parent_path(txn.path), WatchType.CHILDREN,
                                EventType.NODE_CHILDREN_CHANGED, txn.zxid)
        elif txn.op == "set_data":
            node = self.tree[txn.path]
            node["data"] = txn.data
            node["version"] += 1
            node["modified_tx"] = txn.zxid
            fired += self._fire(txn.path, WatchType.DATA,
                                EventType.NODE_DATA_CHANGED, txn.zxid)
            fired += self._fire(txn.path, WatchType.EXISTS,
                                EventType.NODE_DATA_CHANGED, txn.zxid)
        elif txn.op == "delete":
            parent = self.tree[parent_path(txn.path)]
            try:
                parent["children"].remove(node_name(txn.path))
            except ValueError:  # pragma: no cover - defensive
                pass
            parent["cversion"] += 1
            self.tree.pop(txn.path, None)
            for wtype in (WatchType.DATA, WatchType.EXISTS, WatchType.CHILDREN):
                fired += self._fire(txn.path, wtype, EventType.NODE_DELETED,
                                    txn.zxid)
            fired += self._fire(parent_path(txn.path), WatchType.CHILDREN,
                                EventType.NODE_CHILDREN_CHANGED, txn.zxid)
        return fired

    def _fire(self, path: str, wtype: WatchType, event_type: EventType,
              zxid: int) -> List[Tuple[str, Callable, WatchedEvent]]:
        registered = self.watches.get(path, {}).pop(wtype.value, None)
        if not registered:
            return []
        event = WatchedEvent(type=event_type, path=path, txid=zxid)
        return [(session, cb, event) for session, cb in registered]

    def register_watch(self, path: str, wtype: WatchType, session: str,
                       callback: Callable) -> None:
        self.watches.setdefault(path, {}).setdefault(wtype.value, []).append(
            (session, callback))

    def drop_session_watches(self, session: str) -> None:
        for per_path in self.watches.values():
            for key in list(per_path.keys()):
                per_path[key] = [(s, cb) for s, cb in per_path[key] if s != session]


@dataclass
class _Session:
    session_id: str
    server: ZkServer
    ephemerals: List[str] = field(default_factory=list)
    last_heartbeat: float = 0.0
    expired: bool = False


class ZooKeeperEnsemble:
    """The deployment: servers, sessions, the write pipeline."""

    def __init__(self, env: Environment, profile: CloudProfile, rng,
                 n_servers: int = 3, vm_type: str = "t3.medium",
                 session_timeout_ms: float = 10_000.0) -> None:
        if n_servers < 3 or n_servers % 2 == 0:
            raise ValueError("ensemble size must be odd and >= 3")
        self.env = env
        self.profile = profile
        self.rng = rng
        self.vm_type = vm_type
        self.session_timeout_ms = session_timeout_ms
        self.servers = [ZkServer(i, env) for i in range(n_servers)]
        self.leader = self.servers[0]
        self._zxid = 0
        self._session_ids = itertools.count(1)
        self.sessions: Dict[str, _Session] = {}
        self._write_gate = None  # created lazily: serializes ZAB at the leader
        env.process(self._session_sweeper(), name="zk-session-sweeper")

    # ------------------------------------------------------------ sessions
    def open_session(self, server_index: Optional[int] = None) -> _Session:
        sid = f"zk-s{next(self._session_ids)}"
        server = self.servers[
            server_index if server_index is not None
            else self.rng.randrange(len(self.servers))]
        session = _Session(session_id=sid, server=server,
                           last_heartbeat=self.env.now)
        self.sessions[sid] = session
        return session

    def heartbeat(self, sid: str) -> None:
        session = self.sessions.get(sid)
        if session is not None:
            session.last_heartbeat = self.env.now

    def _session_sweeper(self):
        while True:
            yield SESSION_SWEEP_MS
            now = self.env.now
            for session in list(self.sessions.values()):
                if session.expired:
                    continue
                if now - session.last_heartbeat > self.session_timeout_ms:
                    yield from self._expire(session)

    def _expire(self, session: _Session):
        session.expired = True
        for path in sorted(session.ephemerals, key=lambda p: -p.count("/")):
            try:
                yield from self.submit_write("delete", path, session=session,
                                             internal=True)
            except Exception:  # pragma: no cover - already deleted
                pass
        session.server.drop_session_watches(session.session_id)
        self.sessions.pop(session.session_id, None)

    def close_session(self, session: _Session):
        yield from self._expire(session)

    # ------------------------------------------------------------ validation
    def _validate(self, op: str, path: str, version: int,
                  session: _Session, ephemeral: bool, sequence: bool):
        """Leader-side validation; returns an error code or the final path."""
        tree = self.leader.tree
        if op == "create":
            parent = parent_path(path)
            if parent not in tree:
                return "no_node"
            if tree[parent].get("ephemeral_owner"):
                return "no_children_for_ephemerals"
            final = path
            if sequence:
                final = f"{path}{tree[parent]['cseq']:010d}"
            if final in tree:
                return "node_exists"
            return final
        if path not in tree:
            return "no_node"
        node = tree[path]
        if version >= 0 and node["version"] != version:
            return "bad_version"
        if op == "delete" and node["children"]:
            return "not_empty"
        return path

    # ------------------------------------------------------------ writes
    def submit_write(self, op: str, path: str, session: _Session,
                     data: bytes = b"", version: int = -1,
                     ephemeral: bool = False, sequence: bool = False,
                     internal: bool = False
                     ) -> Generator[Any, Any, Tuple[str, ZkTxn]]:
        """Full write pipeline; returns (error|"ok", txn)."""
        from ..sim.resources import Resource

        if self._write_gate is None:
            self._write_gate = Resource(self.env, capacity=1)
        # client -> serving server -> leader hop
        if not internal:
            yield self.profile.zk_tcp_rtt_ms / 2
            if session.server is not self.leader:
                yield FOLLOWER_APPLY_DELAY_MS / 2
        # The leader serializes proposals (single ZAB pipeline).
        req = self._write_gate.request()
        yield req
        try:
            result = self._validate(op, path, version, session, ephemeral, sequence)
            if result in ("no_node", "node_exists", "bad_version", "not_empty",
                          "no_children_for_ephemerals"):
                return result, None
            final_path = result
            # quorum broadcast: latency grows mildly with ensemble size
            # (the paper: "adding more servers hurts write performance")
            size_kb = len(data) / 1024.0
            quorum_factor = 1.0 + 0.15 * (len(self.servers) - 3)
            latency = self.profile.zk_write.sample(self.rng, size_kb) * quorum_factor
            yield latency
            self.leader.busy_ms += latency
            self._zxid += 1
            txn = ZkTxn(zxid=self._zxid, op=op, path=final_path, data=data,
                        ephemeral_owner=session.session_id if ephemeral else None,
                        session=session.session_id)
            deliveries = self.leader.apply(txn)
            self._deliver(deliveries)
            for server in self.servers[1:]:
                self.env.process(self._follower_apply(server, txn),
                                 name=f"zk-apply-{server.index}")
        finally:
            self._write_gate.release(req)
        if ephemeral and not internal:
            session.ephemerals.append(final_path)
        if op == "delete":
            for s in self.sessions.values():
                if final_path in s.ephemerals:
                    s.ephemerals.remove(final_path)
        # response travels back through the serving server
        if not internal:
            yield self.profile.zk_tcp_rtt_ms / 2
        return "ok", txn

    def _follower_apply(self, server: ZkServer, txn: ZkTxn):
        yield FOLLOWER_APPLY_DELAY_MS
        # zxid-ordered application: wait for predecessors if needed
        while server.applied_zxid < txn.zxid - 1:  # pragma: no cover - rare
            yield 0.05
        self._deliver(server.apply(txn))

    def _deliver(self, deliveries) -> None:
        for _session, callback, event in deliveries:
            callback(event)

    # ------------------------------------------------------------ reads
    def read(self, session: _Session, path: str
             ) -> Generator[Any, Any, Optional[Dict[str, Any]]]:
        """Serve from the session's local replica over the warm TCP link."""
        server = session.server
        node = server.tree.get(path)
        size_kb = len(node["data"]) / 1024.0 if node else 0.0
        latency = self.profile.zk_read.sample(self.rng, size_kb)
        yield latency
        server.busy_ms += latency
        server.reads += 1
        node = server.tree.get(path)
        if node is None:
            return None
        return {
            "path": path, "data": node["data"], "version": node["version"],
            "cversion": node["cversion"], "created_tx": node["created_tx"],
            "modified_tx": node["modified_tx"],
            "children": list(node["children"]),
            "ephemeral_owner": node["ephemeral_owner"],
        }

    # ------------------------------------------------------------ economics
    def daily_cost(self, storage_gb: float = 20.0) -> float:
        """Fixed cost: n VMs plus block storage (Section 5.3.4)."""
        vm = len(self.servers) * VM_DAY_RATE[self.vm_type]
        ebs = len(self.servers) * storage_gb * \
            self.profile.prices.block_storage_gb_month / 30.0
        return vm + ebs

    def utilization(self, window_ms: float) -> List[float]:
        """Per-server busy fraction over the last window (Figure 5)."""
        return [min(1.0, s.busy_ms / window_ms) for s in self.servers]
