"""User-data storage backends (Section 4.2, Figures 8/9/11).

The user store holds the read-optimized replica of every node.  Backends
are **registered by URI scheme** (:func:`register_backend`) and resolved
by :func:`make_user_store` from either a bare kind (``"s3"``, the
historical config spelling) or a URI with parameters
(``"hybrid://?threshold_kb=8"``).  The paper's four evaluated backends:

* **S3Backend** (``s3://``) — object store only.  Writes are whole-object:
  the leader first downloads the existing node, then uploads the full new
  image (the read-modify-write cost the paper attributes to missing
  partial updates, Requirement #6).
* **DynamoBackend** (``dynamo://`` / ``dynamodb://``) — key-value only:
  fast small reads, per-kB write costs that explode for large nodes.
* **HybridBackend** (``hybrid://``) — nodes up to ``threshold_kb`` live
  entirely in the key-value store; for larger nodes the metadata stays in
  the key-value item and the data bytes go to the object store.  Reads
  start at the key-value item and only large nodes pay the second request.
* **RedisBackend** (``redis://``) — user-managed in-memory cache:
  ZooKeeper-level latency, but a provisioned VM (not serverless).

plus a reference backend:

* **MemBackend** (``mem://``) — in-process per-region dicts with a fixed
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

from typing import Any, Dict, Generator, List, Optional, Tuple, Type
from urllib.parse import parse_qsl, urlparse

from ..cloud.cloud import Cloud
from ..cloud.context import OpContext
from ..cloud.errors import NoSuchObject
from ..cloud.expressions import clone, item_size_kb
from ..cloud.faults import FaultInjector, draw_fault
from .config import FaaSKeeperConfig, UserStoreKind
from .layout import USER_BUCKET, USER_TABLE

__all__ = ["UserStore", "make_user_store", "register_backend", "backend_for",
           "registered_schemes", "parse_store_uri",
           "S3Backend", "DynamoBackend", "HybridBackend", "RedisBackend",
           "MemBackend"]

# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: scheme (including aliases) -> backend class.
BACKEND_REGISTRY: Dict[str, Type["UserStore"]] = {}


def register_backend(scheme: str, *aliases: str):
    """Class decorator: register a :class:`UserStore` under its URI scheme.

    The primary ``scheme`` becomes the class's canonical ``kind``;
    ``aliases`` resolve to the same class (``dynamo://`` next to the
    historical ``dynamodb`` kind string).  Registration is what makes a
    backend conformance-tested: the shared suite parameterizes over
    :func:`registered_schemes`.
    """

    def wrap(cls: Type["UserStore"]) -> Type["UserStore"]:
        cls.scheme = scheme
        for name in (scheme, *aliases):
            existing = BACKEND_REGISTRY.get(name)
            if existing is not None and existing is not cls:
                raise ValueError(
                    f"scheme {name!r} already registered to {existing.__name__}")
            BACKEND_REGISTRY[name] = cls
        return cls

    return wrap


def registered_schemes() -> List[str]:
    """Canonical schemes, sorted (aliases collapse onto their backend)."""
    return sorted({cls.scheme for cls in BACKEND_REGISTRY.values()})


def backend_for(scheme: str) -> Type["UserStore"]:
    cls = BACKEND_REGISTRY.get(scheme)
    if cls is None:
        raise ValueError(
            f"unknown user store scheme {scheme!r} "
            f"(registered: {registered_schemes()})")
    return cls


def parse_store_uri(uri: str) -> Tuple[str, Dict[str, str]]:
    """Split a store spec into (scheme, params).

    Accepts both the historical bare kinds (``"s3"``) and URIs with a
    query string (``"hybrid://?threshold_kb=8"``).  Host/path parts are
    rejected — a backend's replicas are addressed by the deployment's
    region list, not by the URI.
    """
    if "://" not in uri:
        return uri, {}
    parsed = urlparse(uri)
    if parsed.netloc or (parsed.path and parsed.path != "/"):
        raise ValueError(
            f"user store URI {uri!r} must not carry host/path parts")
    return parsed.scheme, dict(parse_qsl(parsed.query))


def make_user_store(cloud: Cloud, config: FaaSKeeperConfig) -> "UserStore":
    """Resolve ``config.user_store`` through the registry."""
    scheme, params = parse_store_uri(config.user_store)
    cls = backend_for(scheme)
    return cls.from_config(cloud, config, params)


# ---------------------------------------------------------------------------
# Base class
# ---------------------------------------------------------------------------

class UserStore:
    """Abstract backend: region-replicated node images."""

    kind: str = "?"
    #: Canonical URI scheme (set by :func:`register_backend`).
    scheme: str = "?"

    def __init__(self, cloud: Cloud, regions: List[str]) -> None:
        self.cloud = cloud
        self.regions = list(regions)

    @classmethod
    def from_config(cls, cloud: Cloud, config: FaaSKeeperConfig,
                    params: Dict[str, str]) -> "UserStore":
        """Construct from a deployment config + URI query parameters."""
        if params:
            raise ValueError(
                f"{cls.scheme}:// takes no parameters, got {sorted(params)}")
        return cls(cloud, config.regions)

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

    def fault_points(self) -> List[Any]:
        """Underlying store objects a fault injector arms (each carries a
        ``faults`` attribute, a ``service_label`` and a ``region``)."""
        return []

    @staticmethod
    def image_size_kb(image: Dict[str, Any]) -> float:
        return item_size_kb(image)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

@register_backend("s3")
class S3Backend(UserStore):
    """Object store backend: node image serialized as one object."""

    kind = UserStoreKind.S3

    def __init__(self, cloud: Cloud, regions: List[str]) -> None:
        super().__init__(cloud, regions)
        self._stores = {region: cloud.objectstore("s3", region=region)
                        for region in regions}
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
        # ``get_object`` cloned the metadata for this call: it is ours.
        image["data"] = payload
        return image

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
        entry = self._stores[region]._buckets[USER_BUCKET].get(path)
        if entry is None:
            return None
        payload, meta = entry
        return dict(meta, data=payload)

    def wipe_region(self, region):
        self._stores[region]._buckets[USER_BUCKET].clear()

    def fault_points(self):
        return list(self._stores.values())


@register_backend("dynamodb", "dynamo")
class DynamoBackend(UserStore):
    """Key-value backend: node image stored as one item."""

    kind = UserStoreKind.DYNAMODB

    def __init__(self, cloud: Cloud, regions: List[str]) -> None:
        super().__init__(cloud, regions)
        self._kvs = {region: cloud.kv("dynamodb:user", region=region)
                     for region in regions}
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
        self._kvs[region].table(USER_TABLE)._items.clear()

    def fault_points(self):
        return list(self._kvs.values())


@register_backend("hybrid")
class HybridBackend(UserStore):
    """Small nodes in the key-value store, large data spilled to S3.

    Section 4.2: optimizes for the common case (ZooKeeper nodes are tiny —
    the HBase study in Section 5.1 found a median node size of 0 bytes)
    while keeping large-node costs bounded by object-storage prices.
    """

    kind = UserStoreKind.HYBRID

    #: Section 4.2: nodes up to 4 kB go to the key-value store.
    THRESHOLD_KB = 4.0

    def __init__(self, cloud: Cloud, regions: List[str],
                 threshold_kb: float = THRESHOLD_KB) -> None:
        super().__init__(cloud, regions)
        self.threshold_kb = threshold_kb
        self._kvs = {region: cloud.kv("dynamodb:user", region=region)
                     for region in regions}
        self._stores = {region: cloud.objectstore("s3", region=region)
                        for region in regions}
        for region in regions:
            self._kvs[region].create_table(USER_TABLE)
            self._stores[region].create_bucket(USER_BUCKET)

    @classmethod
    def from_config(cls, cloud, config, params):
        extra = set(params) - {"threshold_kb"}
        if extra:
            raise ValueError(f"hybrid:// unknown parameters {sorted(extra)}")
        return cls(cloud, config.regions,
                   float(params.get("threshold_kb", cls.THRESHOLD_KB)))

    def write_node(self, ctx, region, path, image):
        kv = self._kvs[region]
        data = image.get("data", b"")
        if len(data) / 1024.0 <= self.threshold_kb:
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
        if not item.get("data_in_s3"):
            item.pop("data_in_s3", None)
            return item
        try:
            payload, _meta = yield from self._stores[region].get_object(
                ctx, USER_BUCKET, path)
        except NoSuchObject:  # pragma: no cover - defensive
            payload = b""
        item.pop("data_in_s3", None)
        item["data"] = payload
        return item

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
        self._kvs[region].table(USER_TABLE)._items.clear()
        self._stores[region]._buckets[USER_BUCKET].clear()

    def fault_points(self):
        points = []
        for r in self.regions:
            points.append(self._kvs[r])
            points.append(self._stores[r])
        return points


@register_backend("redis")
class RedisBackend(UserStore):
    """User-managed in-memory cache (Figure 8's Redis line)."""

    kind = UserStoreKind.REDIS

    def write_node(self, ctx, region, path, image):
        cache = self.cloud.cache("redis", region=region)
        yield from cache.set(ctx, path, image)

    def read_node(self, ctx, region, path):
        cache = self.cloud.cache("redis", region=region)
        return (yield from cache.get(ctx, path))

    def delete_node(self, ctx, region, path):
        cache = self.cloud.cache("redis", region=region)
        yield from cache.delete(ctx, path)

    def peek(self, region, path):
        return self.cloud.cache("redis", region=region)._data.get(path)

    def wipe_region(self, region):
        self.cloud.cache("redis", region=region)._data.clear()

    def fault_points(self):
        return [self.cloud.cache("redis", region=r) for r in self.regions]


@register_backend("mem")
class MemBackend(UserStore):
    """In-process reference backend: per-region dicts, fixed latency,
    zero billing.  The conformance suite's baseline — any behavioural
    divergence in a cloud backend shows up as a diff against ``mem://`` —
    and the cheapest substrate for chaos and fault-schedule matrices."""

    kind = UserStoreKind.MEM
    #: Fixed per-op latency (ms): deterministic, no RNG draws.
    LATENCY_MS = 0.1
    # Labels for fault-injector arming (MemBackend is its own fault point).
    service_label = "mem"
    region = "all"

    def __init__(self, cloud: Cloud, regions: List[str]) -> None:
        super().__init__(cloud, regions)
        self._data: Dict[str, Dict[str, Dict[str, Any]]] = {
            r: {} for r in regions}
        self.faults: Optional[FaultInjector] = None

    def _replica(self, region: str) -> Dict[str, Dict[str, Any]]:
        try:
            return self._data[region]
        except KeyError:
            raise ValueError(f"unknown region {region!r}") from None

    def write_node(self, ctx, region, path, image):
        replica = self._replica(region)
        fault = draw_fault(self.faults, "write_node", mutating=True)
        if fault is not None:
            yield from self.faults.fire_before(fault, f"mem write {path}")
        yield self.cloud.env.timeout(self.LATENCY_MS)
        replica[path] = clone(image)
        if fault is not None:
            self.faults.fire_after(fault, f"mem write {path}")

    def read_node(self, ctx, region, path):
        replica = self._replica(region)
        fault = draw_fault(self.faults, "read_node", mutating=False)
        if fault is not None:
            yield from self.faults.fire_before(fault, f"mem read {path}")
        yield self.cloud.env.timeout(self.LATENCY_MS)
        return clone(replica.get(path))

    def delete_node(self, ctx, region, path):
        replica = self._replica(region)
        fault = draw_fault(self.faults, "delete_node", mutating=True)
        if fault is not None:
            yield from self.faults.fire_before(fault, f"mem delete {path}")
        yield self.cloud.env.timeout(self.LATENCY_MS)
        replica.pop(path, None)
        if fault is not None:
            self.faults.fire_after(fault, f"mem delete {path}")

    def peek(self, region, path):
        return self._replica(region).get(path)

    def wipe_region(self, region):
        self._replica(region).clear()

    def fault_points(self):
        return [self]
