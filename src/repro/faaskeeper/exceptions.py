"""FaaSKeeper client-facing exceptions (mirroring kazoo/ZooKeeper errors)."""

from __future__ import annotations

__all__ = [
    "FaaSKeeperError",
    "NoNodeError",
    "NodeExistsError",
    "BadVersionError",
    "NotEmptyError",
    "NoChildrenForEphemeralsError",
    "SessionClosedError",
    "RequestFailedError",
    "SystemBusyError",
    "AccessDeniedError",
    "BadArgumentsError",
    "RolledBackError",
    "TransactionFailedError",
    "RetryFailedError",
    "error_for",
]


class FaaSKeeperError(Exception):
    """Base class for FaaSKeeper errors."""


class NoNodeError(FaaSKeeperError):
    """The target node does not exist."""


class NodeExistsError(FaaSKeeperError):
    """create() on an existing path."""


class BadVersionError(FaaSKeeperError):
    """Conditional update with a stale version number."""


class NotEmptyError(FaaSKeeperError):
    """delete() on a node that still has children."""


class NoChildrenForEphemeralsError(FaaSKeeperError):
    """create() under an ephemeral parent (ZooKeeper forbids this)."""


class SessionClosedError(FaaSKeeperError):
    """Operation on a closed or expired session."""


class RequestFailedError(FaaSKeeperError):
    """The system rejected the request (follower failure path, queue drop)."""


class SystemBusyError(RequestFailedError):
    """``system_busy``: rejected before anything was staged (safe to replay)."""


class AccessDeniedError(FaaSKeeperError):
    """ACL check failed."""


class BadArgumentsError(FaaSKeeperError):
    """Malformed path or arguments."""


class RolledBackError(FaaSKeeperError):
    """An op inside a failed multi that was rolled back with the batch.

    Mirrors ZooKeeper's ``RUNTIMEINCONSISTENCY``/rolled-back marker: this
    op did not fail by itself — a sibling did, and the transaction's
    all-or-nothing guarantee undid (or never applied) this one.
    """


class RetryFailedError(FaaSKeeperError):
    """A :class:`~repro.faaskeeper.client.SessionRetry` loop gave up: the
    wrapped operation kept failing with retryable errors until the attempt
    budget ran out.  The last underlying error is chained as ``__cause__``."""


class TransactionFailedError(FaaSKeeperError):
    """A multi()/transaction() aborted: no member op was committed.

    ``results`` lists one outcome per submitted op, in op order — the
    culprit's typed error (e.g. :class:`BadVersionError`) and
    :class:`RolledBackError` for the members that were rolled back with it.
    """

    def __init__(self, message: str, results: list | None = None) -> None:
        super().__init__(message)
        self.results = list(results or [])


#: Error code of a failed request -> the exception the client raises.
_ERROR_MAP = {
    "no_node": NoNodeError,
    "node_exists": NodeExistsError,
    "bad_version": BadVersionError,
    "not_empty": NotEmptyError,
    "no_children_for_ephemerals": NoChildrenForEphemeralsError,
    "session_closed": SessionClosedError,
    "system_failure": RequestFailedError,
    "system_busy": SystemBusyError,
    "bad_arguments": BadArgumentsError,
    "access_denied": AccessDeniedError,
    "rolled_back": RolledBackError,
}


def error_for(code: str, context: str) -> FaaSKeeperError:
    """The typed error of a failed request's ``code`` (an unknown code is a
    :class:`RequestFailedError`), its message ``"<context>: <code>"``."""
    return _ERROR_MAP.get(code, RequestFailedError)(f"{context}: {code}")
