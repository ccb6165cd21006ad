"""Exceptions raised by the simulated cloud services."""

from __future__ import annotations

__all__ = [
    "CloudError",
    "ConditionFailed",
    "ItemTooLarge",
    "NoSuchItem",
    "NoSuchBucket",
    "NoSuchObject",
    "NoSuchTable",
    "PayloadTooLarge",
    "NoSuchQueue",
    "FunctionCrash",
    "ThrottlingError",
    "StorageTimeout",
    "ConnectionReset",
    "StorageUnavailable",
    "TRANSIENT_ERRORS",
]


class CloudError(Exception):
    """Base class for simulated service errors."""


class ConditionFailed(CloudError):
    """A conditional update's condition evaluated to false.

    Mirrors DynamoDB's ``ConditionalCheckFailedException`` — the primitive
    the paper's timed locks are built on.
    """

    def __init__(self, message: str = "conditional check failed", item=None) -> None:
        super().__init__(message)
        self.item = item


class ItemTooLarge(CloudError):
    """Item exceeds the store's size limit (400 kB DynamoDB / 1 MB Datastore)."""


class NoSuchTable(CloudError):
    pass


class NoSuchItem(CloudError):
    pass


class NoSuchBucket(CloudError):
    pass


class NoSuchObject(CloudError):
    pass


class PayloadTooLarge(CloudError):
    """Queue message exceeds the provider payload limit (256 kB SQS)."""


class NoSuchQueue(CloudError):
    """Send to a deleted queue (SQS ``QueueDoesNotExist``)."""


class FunctionCrash(CloudError):
    """Injected function failure (used by fault-tolerance tests)."""


class ThrottlingError(CloudError):
    """Request rejected by a throughput ceiling."""


class StorageTimeout(CloudError):
    """The request hung past the client deadline; whether it was applied
    server-side is unknown to the caller (an *ambiguous* failure)."""


class ConnectionReset(CloudError):
    """The connection dropped mid-request.  Raised before the mutation
    applied it is unambiguous; raised after (the partial-write fault) the
    caller cannot tell — the retry layer's idempotence tokens exist for
    exactly this case."""


class StorageUnavailable(CloudError):
    """A storage endpoint is being shed: its circuit breaker is open, or a
    retry policy exhausted its attempts.  Carries the terminal cause."""

    def __init__(self, message: str = "storage unavailable",
                 cause: Exception | None = None) -> None:
        super().__init__(message)
        self.cause = cause


#: Error classes a retry policy may transparently retry.  ConditionFailed
#: is deliberately absent: a failed conditional write is a *decision*, not
#: an outage, and must surface to the caller.
TRANSIENT_ERRORS = (ThrottlingError, StorageTimeout, ConnectionReset)
