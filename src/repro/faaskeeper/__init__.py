"""FaaSKeeper: the paper's serverless coordination service.

Public entry points::

    from repro.cloud import Cloud
    from repro.faaskeeper import FaaSKeeperService, FaaSKeeperConfig

    cloud = Cloud.aws(seed=0)
    fk = FaaSKeeperService.deploy(cloud, FaaSKeeperConfig(user_store="hybrid"))
    with fk.connect() as client:
        client.create("/app", b"hello")
        data, stat = client.get_data("/app")
"""

from .cache import ClientReadCache
from .chaos import (
    ChaosMonkey,
    verify_exactly_once,
    verify_outbox_delivery,
    wipe_system_tables,
)
from .client import (
    FaaSKeeperClient,
    FKFuture,
    SessionRetry,
    Transaction,
    WriteResult,
)
from .config import FaaSKeeperConfig, UserStoreKind
from .distributor import DistributionStage, VisibilityBoard
from .exceptions import (
    AccessDeniedError,
    BadArgumentsError,
    BadVersionError,
    FaaSKeeperError,
    NoChildrenForEphemeralsError,
    NodeExistsError,
    NoNodeError,
    NotEmptyError,
    RequestFailedError,
    RetryFailedError,
    RolledBackError,
    SessionClosedError,
    TransactionFailedError,
)
from .model import (
    ACL_PERMS,
    OPEN_ACL,
    CheckOp,
    CheckResult,
    CreateOp,
    DeleteOp,
    EventType,
    KeeperState,
    NodeStat,
    Operation,
    SetDataOp,
    WatchedEvent,
    WatchType,
    acl_allows,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .outbox import (
    FakeHttp,
    FileSink,
    InProcSink,
    OutboxStage,
    Sink,
    WebhookSink,
    make_sink,
    register_sink,
)
from .service import FaaSKeeperService
from .snapshot import SnapshotManager
from .watches import ChildrenWatch, DataWatch
from . import recipes

__all__ = [
    "FaaSKeeperService",
    "FaaSKeeperConfig",
    "UserStoreKind",
    "FaaSKeeperClient",
    "KeeperState",
    "SessionRetry",
    "DataWatch",
    "ChildrenWatch",
    "recipes",
    "ClientReadCache",
    "DistributionStage",
    "VisibilityBoard",
    "SnapshotManager",
    "ChaosMonkey",
    "wipe_system_tables",
    "verify_exactly_once",
    "verify_outbox_delivery",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "OutboxStage",
    "Sink",
    "InProcSink",
    "FileSink",
    "WebhookSink",
    "FakeHttp",
    "make_sink",
    "register_sink",
    "FKFuture",
    "Transaction",
    "WriteResult",
    "CheckResult",
    "Operation",
    "CreateOp",
    "SetDataOp",
    "DeleteOp",
    "CheckOp",
    "NodeStat",
    "ACL_PERMS",
    "OPEN_ACL",
    "acl_allows",
    "WatchedEvent",
    "WatchType",
    "EventType",
    "FaaSKeeperError",
    "NoNodeError",
    "NodeExistsError",
    "BadVersionError",
    "NotEmptyError",
    "NoChildrenForEphemeralsError",
    "SessionClosedError",
    "RequestFailedError",
    "AccessDeniedError",
    "BadArgumentsError",
    "RolledBackError",
    "TransactionFailedError",
    "RetryFailedError",
]
