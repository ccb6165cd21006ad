"""Data model: node stats, watch events, the write envelope.

Every write is a transaction: a :class:`Request` envelope whose ``ops``
list holds one or more typed :class:`Operation` members that commit
atomically under one transaction id (ZooKeeper's ``multi`` semantics).
``create()``/``set_data()``/``delete()`` submit the one-member case,
``multi()``/``transaction()`` longer ones; nothing past the client facade
tells them apart.  The follower parses the same ``Operation`` objects back
out of the wire dicts, so client and service agree on one schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Any, ClassVar, Dict, List, NamedTuple, Optional, Type

from .exceptions import BadArgumentsError

__all__ = [
    "ACL_PERMS",
    "OPEN_ACL",
    "acl_allows",
    "KeeperState",
    "NodeStat",
    "WatchType",
    "WatchedEvent",
    "EventType",
    "Operation",
    "CreateOp",
    "SetDataOp",
    "DeleteOp",
    "CheckOp",
    "operation_from_dict",
    "WriteResult",
    "CheckResult",
    "Request",
    "Response",
    "validate_path",
    "parent_path",
    "node_name",
]


class KeeperState(str, Enum):
    """Session lifecycle states surfaced to client state listeners.

    Mirrors kazoo's ``KazooState``: CONNECTED while the session is healthy,
    SUSPENDED when the service has observed the client unreachable (a missed
    heartbeat, a dropped request) but the session still exists — operations
    may yet succeed or the session may be evicted — and LOST once the
    session is closed or evicted, which is terminal: ephemeral nodes are
    gone and a new session must be opened.
    """

    CONNECTED = "connected"
    SUSPENDED = "suspended"
    LOST = "lost"


class WatchType(str, Enum):
    """What kind of change a watch fires on (ZooKeeper watch classes)."""

    DATA = "data"          # set_data / delete on the node
    EXISTS = "exists"      # create / delete of the node
    CHILDREN = "children"  # create / delete of a direct child


class EventType(str, Enum):
    """Client-visible watch event types."""

    NODE_DATA_CHANGED = "node_data_changed"
    NODE_CREATED = "node_created"
    NODE_DELETED = "node_deleted"
    NODE_CHILDREN_CHANGED = "node_children_changed"


class NodeStat(NamedTuple):
    """Per-node metadata, the analogue of ZooKeeper's ``Stat`` (a named
    tuple, as kazoo's ``ZnodeStat`` is).

    ``created_tx``/``modified_tx`` are FaaSKeeper txids (the zxid analogue);
    ``version`` counts data changes, ``cversion`` child-list changes.
    """

    created_tx: int
    modified_tx: int
    version: int
    cversion: int
    num_children: int
    data_length: int
    ephemeral_owner: Optional[str] = None

    @classmethod
    def from_image(cls, image: Dict[str, Any]) -> "NodeStat":
        get = image.get
        return cls(get("created_tx", 0), get("modified_tx", 0),
                   get("version", 0), get("cversion", 0),
                   len(get("children", ())), len(get("data") or b""),
                   get("ephemeral_owner"))


@dataclass(frozen=True)
class WatchedEvent:
    """Delivered to watch callbacks."""

    type: EventType
    path: str
    txid: int


ACL_PERMS = ("read", "write", "create", "delete")

#: Everyone-may-do-everything ACL (ZooKeeper's OPEN_ACL_UNSAFE).
OPEN_ACL = {perm: ["world"] for perm in ACL_PERMS}


def acl_allows(acl: Optional[Dict[str, List[str]]], perm: str,
               session: str) -> bool:
    """Check one permission of a node ACL for a session (Section 4.4)."""
    if not acl:
        return True
    allowed = acl.get(perm, [])
    return "world" in allowed or session in allowed


@dataclass(frozen=True)
class WriteResult:
    """Outcome of a committed write."""

    path: str
    txid: int
    version: int


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a passed version check inside a transaction."""

    path: str
    version: int


@dataclass(frozen=True)
class Operation:
    """One element of the write envelope: a typed, validated operation.

    Subclasses mirror ZooKeeper's transaction op set (create / setData /
    delete / check).  ``validate()`` runs client-side before submission;
    ``to_dict()``/:func:`operation_from_dict` define the wire schema shared
    with the follower; ``result_from_multi()`` maps this member's slot of
    a committed envelope's response back to its typed result.
    """

    path: str

    OP: ClassVar[str] = ""

    def validate(self) -> None:
        validate_path(self.path)

    def to_dict(self) -> Dict[str, Any]:
        return {"op": self.OP, "path": self.path}

    def result_from_multi(self, result: Dict[str, Any]) -> Any:
        """Typed result of this op inside a committed envelope."""
        raise NotImplementedError


@dataclass(frozen=True)
class CreateOp(Operation):
    """Create a node (optionally ephemeral / sequence-suffixed / ACL'd)."""

    data: bytes = b""
    ephemeral: bool = False
    sequence: bool = False
    acl: Optional[dict] = None

    OP: ClassVar[str] = "create"

    def validate(self) -> None:
        validate_path(self.path, allow_root=False)

    def to_dict(self) -> Dict[str, Any]:
        return {"op": self.OP, "path": self.path, "data": bytes(self.data),
                "ephemeral": self.ephemeral, "sequence": self.sequence,
                "acl": self.acl}

    def result_from_multi(self, result: Dict[str, Any]) -> str:
        return result["path"]


@dataclass(frozen=True)
class SetDataOp(Operation):
    """Replace node data, optionally conditional on ``version``."""

    data: bytes = b""
    version: int = -1

    OP: ClassVar[str] = "set_data"

    def to_dict(self) -> Dict[str, Any]:
        return {"op": self.OP, "path": self.path, "data": bytes(self.data),
                "version": self.version}

    def result_from_multi(self, result: Dict[str, Any]) -> WriteResult:
        return WriteResult(path=result["path"], txid=result["txid"],
                           version=result["version"])


@dataclass(frozen=True)
class DeleteOp(Operation):
    """Delete a (childless) node, optionally conditional on ``version``."""

    version: int = -1

    OP: ClassVar[str] = "delete"

    def validate(self) -> None:
        validate_path(self.path, allow_root=False)

    def to_dict(self) -> Dict[str, Any]:
        return {"op": self.OP, "path": self.path, "version": self.version}

    def result_from_multi(self, result: Dict[str, Any]) -> None:
        return None


@dataclass(frozen=True)
class CheckOp(Operation):
    """Assert a node exists (and, when ``version >= 0``, matches it).

    ZooKeeper's transaction-only guard op: it never mutates state, but the
    whole multi aborts when the check fails at commit time.
    """

    version: int = -1

    OP: ClassVar[str] = "check"

    def to_dict(self) -> Dict[str, Any]:
        return {"op": self.OP, "path": self.path, "version": self.version}

    def result_from_multi(self, result: Dict[str, Any]) -> CheckResult:
        return CheckResult(path=result["path"], version=result["version"])


_OPERATION_TYPES: Dict[str, Type[Operation]] = {
    cls.OP: cls for cls in (CreateOp, SetDataOp, DeleteOp, CheckOp)}


def operation_from_dict(raw: Dict[str, Any]) -> Operation:
    """Parse one wire-dict envelope element back into a typed Operation."""
    if not isinstance(raw, dict):
        raise BadArgumentsError(f"malformed operation {raw!r}")
    cls = _OPERATION_TYPES.get(raw.get("op"))
    if cls is None:
        raise BadArgumentsError(f"unknown operation {raw.get('op')!r}")
    fields = {k: v for k, v in raw.items() if k != "op"}
    try:
        return cls(**fields)
    except TypeError as exc:
        raise BadArgumentsError(
            f"malformed {raw.get('op')} operation: {exc}") from exc


@dataclass
class Request:
    """Client -> follower queue message (the write envelope).

    A write carries its member operations as wire dicts in ``ops`` and
    commits them atomically; ``close_session`` carries none.
    """

    session: str
    rid: int                      # per-session request id (dedup + ordering)
    op: str                       # write | close_session
    ops: List[dict] = field(default_factory=list)  # member operations

    @classmethod
    def from_operations(cls, session: str, rid: int,
                        ops: List[Operation]) -> "Request":
        """Write envelope: N >= 1 operations, one queue message, one commit."""
        return cls(session=session, rid=rid, op="write",
                   ops=[op.to_dict() for op in ops])

    def to_body(self) -> Dict[str, Any]:
        """The queue-message dict."""
        return {"session": self.session, "rid": self.rid, "op": self.op,
                "ops": self.ops}

    @property
    def size_kb(self) -> float:
        """Queue payload: data plus 128 B of framing per member (a
        member-less ``close_session`` is one bare frame)."""
        if not self.ops:
            return 128 / 1024.0
        return sum((len(d.get("data", b"") or b"") + 128) / 1024.0
                   for d in self.ops)


@dataclass
class Response:
    """Function -> client notification (success/failure of a request)."""

    session: str
    rid: int
    ok: bool
    error: str = ""
    txid: int = 0
    #: Writes: per-member outcome dicts, in op order.
    results: List[dict] | None = None


@lru_cache(maxsize=4096)
def validate_path(path: str, allow_root: bool = True) -> None:
    """ZooKeeper path rules: absolute, no trailing slash, no empty segments.

    A pure function of its arguments, so accepted paths are remembered
    (bounded, least recently checked out first).  A rejection raises and
    is therefore never remembered, and ``"/"`` accepted as a read target
    is still rejected under ``allow_root=False``: the flag is part of
    what is remembered.
    """
    if not path or not path.startswith("/"):
        raise BadArgumentsError(f"path must start with '/': {path!r}")
    if path == "/":
        if not allow_root:
            raise BadArgumentsError("operation not permitted on '/'")
        return
    if path.endswith("/"):
        raise BadArgumentsError(f"path must not end with '/': {path!r}")
    for segment in path[1:].split("/"):
        if not segment or segment in (".", ".."):
            raise BadArgumentsError(f"invalid path segment in {path!r}")


def parent_path(path: str) -> str:
    if path == "/":
        raise BadArgumentsError("'/' has no parent")
    parent = path.rsplit("/", 1)[0]
    return parent or "/"


def node_name(path: str) -> str:
    return path.rsplit("/", 1)[1]
