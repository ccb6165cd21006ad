"""User-data storage backends (Section 4.2, Figures 8/9/11).

The user store holds the read-optimized replica of every node.
:data:`BACKENDS` maps each :class:`UserStoreKind` to its backend, and
:func:`make_user_store` builds the one ``config.user_store`` names.  The
paper's four evaluated backends:

* **S3Backend** (``s3``) — object store only.  Writes are whole-object:
  the leader first downloads the existing node, then uploads the full new
  image (the read-modify-write cost the paper attributes to missing
  partial updates, Requirement #6).
* **DynamoBackend** (``dynamodb``) — key-value only: fast small reads,
  per-kB write costs that explode for large nodes.
* **HybridBackend** (``hybrid``) — nodes up to 4 kB live entirely in the
  key-value store; for larger nodes the metadata stays in the key-value
  item and the data bytes go to the object store.  Reads start at the
  key-value item and only large nodes pay the second request.
* **RedisBackend** (``redis``) — user-managed in-memory cache:
  ZooKeeper-level latency, but a provisioned VM (not serverless).

plus a reference backend:

* **MemBackend** (``mem``) — in-process per-region dicts with a fixed
  sub-millisecond latency and zero billing: the conformance suite's
  baseline and the cheapest substrate for chaos/fault matrices.

Every backend implements the shared API plus three inspection hooks
(:meth:`UserStore.peek`, :meth:`UserStore.wipe_region`,
:meth:`UserStore.fault_points`) that the chaos harness and the fault
injector use without switching on kind.

All backends expose per-region replicas; the leader writes each region and
clients read their local one.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Type

from ..cloud.cloud import Cloud
from ..cloud.context import OpContext
from ..cloud.endpoint import StorageEndpoint
from ..cloud.errors import NoSuchObject
from ..cloud.expressions import clone, item_size_kb
from .config import FaaSKeeperConfig, UserStoreKind
from .layout import USER_BUCKET, USER_TABLE

__all__ = ["UserStore", "BACKENDS", "make_user_store",
           "S3Backend", "DynamoBackend", "HybridBackend", "RedisBackend",
           "MemBackend"]


# ---------------------------------------------------------------------------
# Base class
# ---------------------------------------------------------------------------

class UserStore:
    """Abstract backend: region-replicated node images."""

    def __init__(self, cloud: Cloud, regions: List[str]) -> None:
        self.cloud = cloud
        self.regions = list(regions)
        #: The storage endpoints behind the replicas: the fault points.
        self._endpoints: List[StorageEndpoint] = []

    def _per_region(self, factory, label: str) -> Dict[str, Any]:
        """One ``factory(label, region=...)`` endpoint per region."""
        endpoints = {r: factory(label, region=r) for r in self.regions}
        self._endpoints += endpoints.values()
        return endpoints

    # API ------------------------------------------------------------------
    def write_node(self, ctx: OpContext, region: str, path: str,
                   image: Dict[str, Any]) -> Generator[Any, Any, None]:
        raise NotImplementedError

    def read_node(self, ctx: OpContext, region: str, path: str
                  ) -> Generator[Any, Any, Optional[Dict[str, Any]]]:
        raise NotImplementedError

    def delete_node(self, ctx: OpContext, region: str, path: str
                    ) -> Generator[Any, Any, None]:
        raise NotImplementedError

    def update_metadata(self, ctx: OpContext, region: str, path: str,
                        meta_image: Dict[str, Any]) -> Generator[Any, Any, None]:
        """Read-update-write of a node's metadata, preserving its data.

        The leader uses this for parent nodes (child list / cversion
        changes): the node data itself did not change, but object storage
        has no partial updates (Requirement #6), so the whole node is
        downloaded and rewritten.
        """
        existing = yield from self.read_node(ctx, region, path)
        merged = dict(meta_image)
        merged["data"] = (existing or {}).get("data", b"")
        yield from self.write_node(ctx, region, path, merged)

    # Inspection hooks (zero latency — chaos harness and tests) ------------
    def peek(self, region: str, path: str) -> Optional[Dict[str, Any]]:
        """Zero-latency image peek (the billed path is :meth:`read_node`)."""
        raise NotImplementedError

    def wipe_region(self, region: str) -> None:
        """Destroy one region's replica in place (the disaster
        :meth:`SnapshotManager.recover_region` exists for)."""
        raise NotImplementedError

    def fault_points(self) -> List[StorageEndpoint]:
        """The storage endpoints a fault injector arms."""
        return list(self._endpoints)

    @staticmethod
    def image_size_kb(image: Dict[str, Any]) -> float:
        return item_size_kb(image)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

class S3Backend(UserStore):
    """Object store backend: node image serialized as one object."""

    def __init__(self, cloud: Cloud, regions: List[str]) -> None:
        super().__init__(cloud, regions)
        self._stores = self._per_region(cloud.objectstore, "s3")
        for store in self._stores.values():
            store.create_bucket(USER_BUCKET)

    def write_node(self, ctx, region, path, image):
        store = self._stores[region]
        # No partial updates (Requirement #6): even a metadata-only change
        # requires downloading the old node before uploading the new one.
        try:
            yield from store.get_object(ctx, USER_BUCKET, path)
        except NoSuchObject:
            pass
        meta = {k: v for k, v in image.items() if k != "data"}
        yield from store.put_object(ctx, USER_BUCKET, path, image.get("data", b""), meta)

    def read_node(self, ctx, region, path):
        try:
            payload, image = yield from self._stores[region].get_object(
                ctx, USER_BUCKET, path)
        except NoSuchObject:
            return None
        # ``get_object`` hands out the stored metadata: never mutate it.
        return dict(image, data=payload)

    def delete_node(self, ctx, region, path):
        yield from self._stores[region].delete_object(ctx, USER_BUCKET, path)

    def update_metadata(self, ctx, region, path, meta_image):
        # Single download + whole-object upload (Table 3's "Update Node").
        store = self._stores[region]
        try:
            payload, _meta = yield from store.get_object(ctx, USER_BUCKET, path)
        except NoSuchObject:
            payload = b""
        meta = {k: v for k, v in meta_image.items() if k != "data"}
        yield from store.put_object(ctx, USER_BUCKET, path, payload, meta)

    def peek(self, region, path):
        store = self._stores[region]
        meta = store.head(USER_BUCKET, path)
        return None if meta is None else dict(meta, data=store.raw(USER_BUCKET, path))

    def wipe_region(self, region):
        self._stores[region].clear_bucket(USER_BUCKET)


class DynamoBackend(UserStore):
    """Key-value backend: node image stored as one item."""

    def __init__(self, cloud: Cloud, regions: List[str]) -> None:
        super().__init__(cloud, regions)
        self._kvs = self._per_region(cloud.kv, "dynamodb:user")
        for kv in self._kvs.values():
            kv.create_table(USER_TABLE)

    def write_node(self, ctx, region, path, image):
        yield from self._kvs[region].put_item(ctx, USER_TABLE, path, image)

    def read_node(self, ctx, region, path):
        return (yield from self._kvs[region].get_item(
            ctx, USER_TABLE, path, consistent=True))

    def delete_node(self, ctx, region, path):
        yield from self._kvs[region].delete_item(ctx, USER_TABLE, path)

    def peek(self, region, path):
        item = self._kvs[region].table(USER_TABLE).raw(path)
        return None if item is None else dict(item)

    def wipe_region(self, region):
        self._kvs[region].table(USER_TABLE).clear()


class HybridBackend(UserStore):
    """Small nodes in the key-value store, large data spilled to S3.

    Section 4.2: optimizes for the common case (ZooKeeper nodes are tiny —
    the HBase study in Section 5.1 found a median node size of 0 bytes)
    while keeping large-node costs bounded by object-storage prices.
    """

    #: Section 4.2: nodes up to 4 kB go to the key-value store.
    THRESHOLD_KB = 4.0

    def __init__(self, cloud: Cloud, regions: List[str]) -> None:
        super().__init__(cloud, regions)
        self._kvs = self._per_region(cloud.kv, "dynamodb:user")
        self._stores = self._per_region(cloud.objectstore, "s3")
        for region in regions:
            self._kvs[region].create_table(USER_TABLE)
            self._stores[region].create_bucket(USER_BUCKET)

    def write_node(self, ctx, region, path, image):
        kv = self._kvs[region]
        data = image.get("data", b"")
        if len(data) / 1024.0 <= self.THRESHOLD_KB:
            yield from kv.put_item(ctx, USER_TABLE, path, dict(image, data_in_s3=False))
            return
        meta = {k: v for k, v in image.items() if k != "data"}
        meta["data_in_s3"] = True
        # The two writes are not atomic; write data first so a reader that
        # sees the new metadata always finds the matching object version.
        yield from self._stores[region].put_object(
            ctx, USER_BUCKET, path, data, {})
        yield from kv.put_item(ctx, USER_TABLE, path, meta)

    def read_node(self, ctx, region, path):
        item = yield from self._kvs[region].get_item(
            ctx, USER_TABLE, path, consistent=True)
        if item is None:
            return None
        image = {k: v for k, v in item.items() if k != "data_in_s3"}
        if item.get("data_in_s3"):
            try:
                payload, _meta = yield from self._stores[region].get_object(
                    ctx, USER_BUCKET, path)
            except NoSuchObject:  # pragma: no cover - defensive
                payload = b""
            image["data"] = payload
        return image

    def delete_node(self, ctx, region, path):
        kv = self._kvs[region]
        item = yield from kv.get_item(ctx, USER_TABLE, path, consistent=True)
        yield from kv.delete_item(ctx, USER_TABLE, path)
        if item is not None and item.get("data_in_s3"):
            yield from self._stores[region].delete_object(
                ctx, USER_BUCKET, path)

    def update_metadata(self, ctx, region, path, meta_image):
        # Metadata lives in the key-value item; large data in S3 is left
        # untouched — the hybrid layout's cheap-parent-update advantage.
        kv = self._kvs[region]
        item = yield from kv.get_item(ctx, USER_TABLE, path, consistent=True)
        meta = {k: v for k, v in meta_image.items() if k != "data"}
        if item is not None and item.get("data_in_s3"):
            meta["data_in_s3"] = True
            yield from kv.put_item(ctx, USER_TABLE, path, meta)
        else:
            meta["data"] = (item or {}).get("data", b"")
            meta["data_in_s3"] = False
            yield from kv.put_item(ctx, USER_TABLE, path, meta)

    def peek(self, region, path):
        item = self._kvs[region].table(USER_TABLE).raw(path)
        if item is None:
            return None
        item = dict(item)
        if item.get("data_in_s3"):
            payload = self._stores[region].raw(USER_BUCKET, path)
            item["data"] = payload or b""
        item.pop("data_in_s3", None)
        return item

    def wipe_region(self, region):
        self._kvs[region].table(USER_TABLE).clear()
        self._stores[region].clear_bucket(USER_BUCKET)


class RedisBackend(UserStore):
    """User-managed in-memory cache (Figure 8's Redis line)."""

    def __init__(self, cloud: Cloud, regions: List[str]) -> None:
        super().__init__(cloud, regions)
        self._caches = self._per_region(cloud.cache, "redis")

    def write_node(self, ctx, region, path, image):
        yield from self._caches[region].set(ctx, path, image)

    def read_node(self, ctx, region, path):
        return (yield from self._caches[region].get(ctx, path))

    def delete_node(self, ctx, region, path):
        yield from self._caches[region].delete(ctx, path)

    def peek(self, region, path):
        return self._caches[region].raw(path)

    def wipe_region(self, region):
        self._caches[region].clear()


class MemBackend(UserStore, StorageEndpoint):
    """In-process reference backend: per-region dicts, fixed latency,
    zero billing.  The conformance suite's baseline — any behavioural
    divergence in a cloud backend shows up as a diff against ``mem`` —
    and the cheapest substrate for chaos and fault-schedule matrices."""

    #: Fixed per-op latency (ms): deterministic, no RNG draws.
    LATENCY_MS = 0.1

    def __init__(self, cloud: Cloud, regions: List[str]) -> None:
        UserStore.__init__(self, cloud, regions)
        StorageEndpoint.__init__(self, cloud.env, cloud.profile, cloud.meter,
                                 None, region="all", service_label="mem")
        self._endpoints.append(self)
        self._replicas: Dict[str, Dict[str, Dict[str, Any]]] = {
            r: {} for r in regions}

    def write_node(self, ctx, region, path, image):
        replica = self._replicas[region]
        fault = None if self.faults is None else (
            yield from self._fault("write_node", True, path))
        yield self.LATENCY_MS
        replica[path] = clone(image)
        self._stored((region, path), image)
        self._reply(fault)

    def read_node(self, ctx, region, path):
        replica = self._replicas[region]
        if self.faults is not None:
            yield from self._fault("read_node", False, path)
        yield self.LATENCY_MS
        return self._handout((region, path), replica.get(path))

    def delete_node(self, ctx, region, path):
        replica = self._replicas[region]
        fault = None if self.faults is None else (
            yield from self._fault("delete_node", True, path))
        yield self.LATENCY_MS
        replica.pop(path, None)
        self._reply(fault)

    def peek(self, region, path):
        return self._replicas[region].get(path)

    def wipe_region(self, region):
        self._replicas[region].clear()


#: The backend of each :class:`UserStoreKind` — the one list of kinds the
#: config validates ``user_store`` against.
BACKENDS: Dict[str, Type[UserStore]] = {
    UserStoreKind.S3: S3Backend,
    UserStoreKind.DYNAMODB: DynamoBackend,
    UserStoreKind.HYBRID: HybridBackend,
    UserStoreKind.REDIS: RedisBackend,
    UserStoreKind.MEM: MemBackend,
}


def make_user_store(cloud: Cloud, config: FaaSKeeperConfig) -> UserStore:
    """The backend ``config.user_store`` names, over the config's regions."""
    return BACKENDS[config.user_store](cloud, config.regions)
