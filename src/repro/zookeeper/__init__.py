"""Simulated ZooKeeper: the IaaS baseline FaaSKeeper is compared against.

Helper :func:`deploy_zookeeper` stands up an ensemble on a cloud's clock::

    from repro.cloud import Cloud
    from repro.zookeeper import deploy_zookeeper

    cloud = Cloud.aws(seed=1)
    zk = deploy_zookeeper(cloud, n_servers=3, vm_type="t3.medium")
    client = zk.connect()
"""

from __future__ import annotations

from typing import Optional

from ..cloud.cloud import Cloud
from .client import ZooKeeperClient
from .ensemble import ZkServer, ZkTxn, ZooKeeperEnsemble

__all__ = ["ZooKeeperEnsemble", "ZooKeeperClient", "ZkTxn", "ZkServer",
           "ZooKeeperDeployment", "deploy_zookeeper"]


class ZooKeeperDeployment:
    """Convenience wrapper pairing an ensemble with client factories."""

    def __init__(self, cloud: Cloud, n_servers: int = 3,
                 vm_type: str = "t3.medium",
                 session_timeout_ms: float = 10_000.0) -> None:
        self.cloud = cloud
        self.ensemble = ZooKeeperEnsemble(
            cloud.env, cloud.profile, cloud.rng.stream("zookeeper"),
            n_servers=n_servers, vm_type=vm_type,
            session_timeout_ms=session_timeout_ms)

    def connect(self, server_index: Optional[int] = None) -> ZooKeeperClient:
        return ZooKeeperClient(self.ensemble, server_index)

    def daily_cost(self, storage_gb: float = 20.0) -> float:
        return self.ensemble.daily_cost(storage_gb)


def deploy_zookeeper(cloud: Cloud, n_servers: int = 3,
                     vm_type: str = "t3.medium",
                     session_timeout_ms: float = 10_000.0) -> ZooKeeperDeployment:
    return ZooKeeperDeployment(cloud, n_servers, vm_type, session_timeout_ms)
