"""The :class:`Cloud` facade: one simulated cloud deployment.

Bundles the DES environment, RNG streams, cost meter and service factories.
Everything FaaSKeeper, the ZooKeeper baseline and the benchmarks need hangs
off this object::

    cloud = Cloud.aws(seed=7)
    table = cloud.kv("system").create_table("state")
    cloud.run_process(writer(cloud))       # drive generators synchronously
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

from ..sim.kernel import Environment, Event
from ..sim.rng import RngRegistry
from .cache import InMemoryCache
from .calibration import CloudProfile, aws_profile, gcp_profile
from .context import OpContext
from .functions import DeployedFunction, FunctionRuntime, FunctionSpec
from .kvstore import KeyValueStore
from .objectstore import ObjectStore
from .pricing import CostMeter
from .queues import FifoQueue, StandardQueue, StreamTrigger

__all__ = ["Cloud"]


class Cloud:
    """One provider deployment: services share a clock, RNG seed and meter."""

    def __init__(self, profile: CloudProfile, seed: int = 0,
                 region: str = "us-east-1") -> None:
        self.profile = profile
        self.env = Environment()
        self.rng = RngRegistry(seed)
        self.meter = CostMeter()
        self.region = region
        self.runtime = FunctionRuntime(
            self.env, profile, self.meter, self.rng.stream("functions")
        )
        self._kv: Dict[str, KeyValueStore] = {}
        self._obj: Dict[str, ObjectStore] = {}
        self._caches: Dict[str, InMemoryCache] = {}
        self._queues: Dict[str, Any] = {}

    # ------------------------------------------------------------ factories
    @classmethod
    def aws(cls, seed: int = 0, region: str = "us-east-1") -> "Cloud":
        return cls(aws_profile(), seed=seed, region=region)

    @classmethod
    def gcp(cls, seed: int = 0, region: str = "us-central1") -> "Cloud":
        return cls(gcp_profile(), seed=seed, region=region)

    # ------------------------------------------------------------ services
    def kv(self, label: str = "kv", region: Optional[str] = None) -> KeyValueStore:
        """Get or create a key-value service instance (one per cost label)."""
        key = f"{label}@{region or self.region}"
        if key not in self._kv:
            self._kv[key] = KeyValueStore(
                self.env, self.profile, self.meter,
                self.rng.stream(f"kv:{key}"),
                region=region or self.region, service_label=label,
            )
        return self._kv[key]

    def objectstore(self, label: str = "object", region: Optional[str] = None) -> ObjectStore:
        key = f"{label}@{region or self.region}"
        if key not in self._obj:
            self._obj[key] = ObjectStore(
                self.env, self.profile, self.meter,
                self.rng.stream(f"obj:{key}"),
                region=region or self.region, service_label=label,
            )
        return self._obj[key]

    def cache(self, label: str = "cache", region: Optional[str] = None,
              vm_type: str = "t3.small") -> InMemoryCache:
        key = f"{label}@{region or self.region}"
        if key not in self._caches:
            self._caches[key] = InMemoryCache(
                self.env, self.profile, self.meter,
                self.rng.stream(f"cache:{key}"),
                region=region or self.region, vm_type=vm_type, service_label=label,
            )
        return self._caches[key]

    def fifo_queue(self, name: str, label: str = "queue",
                   max_receive: Optional[int] = 5,
                   seq_source: Optional[Any] = None) -> FifoQueue:
        if name in self._queues:
            raise ValueError(f"queue {name!r} already exists")
        q = FifoQueue(name, self.env, self.profile, self.meter, self.rng,
                      service_label=label, max_receive=max_receive,
                      seq_source=seq_source)
        self._queues[name] = q
        return q

    def delete_queue(self, name: str) -> list:
        """SQS ``DeleteQueue`` for a FIFO queue: the name, the buffer, the
        dispatcher and the RNG stream go.  Returns the undelivered
        messages; a later send to the queue raises ``NoSuchQueue``."""
        return self._queues.pop(name).delete()

    def standard_queue(self, name: str, label: str = "queue",
                       concurrency: int = 4) -> StandardQueue:
        if name in self._queues:
            raise ValueError(f"queue {name!r} already exists")
        q = StandardQueue(name, self.env, self.profile, self.meter, self.rng,
                          service_label=label, concurrency=concurrency)
        self._queues[name] = q
        return q

    def stream_trigger(self, name: str, table, function: DeployedFunction,
                       label: str = "stream") -> StreamTrigger:
        if name in self._queues:
            raise ValueError(f"trigger {name!r} already exists")
        t = StreamTrigger(name, self.env, self.profile, self.meter, self.rng,
                          table=table, function=function, service_label=label)
        self._queues[name] = t
        return t

    def deploy_function(self, name: str, handler, **kwargs) -> DeployedFunction:
        spec = FunctionSpec(name=name, handler=handler,
                            region=kwargs.pop("region", self.region), **kwargs)
        return self.runtime.deploy(spec)

    # ------------------------------------------------------------ execution
    @property
    def now(self) -> float:
        return self.env.now

    def run(self, until: Optional[float] = None) -> None:
        self.env.run(until=until)

    def run_process(self, generator: Generator[Event, Any, Any],
                    name: Optional[str] = None) -> Any:
        """Run a generator to completion, returning its value (sync facade)."""
        proc = self.env.process(generator, name=name)
        return self.env.run(until=proc)

    def client_ctx(self, region: Optional[str] = None, payer: Optional[str] = None) -> OpContext:
        return OpContext(payer=payer, region=region or self.region)
