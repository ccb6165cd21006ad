"""Differential testing: FaaSKeeper backends vs each other vs ZooKeeper.

The same operation sequence, executed against every FaaSKeeper user-store
backend and the ZooKeeper baseline, must produce the same logical tree
(paths, data, child lists) and raise the same error classes.  This is the
strongest evidence of API compatibility (Section 4.4).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud import Cloud
from repro.faaskeeper import FaaSKeeperConfig, FaaSKeeperService
from repro.faaskeeper.exceptions import FaaSKeeperError
from repro.faaskeeper.userstore import BACKENDS
from repro.zookeeper import deploy_zookeeper

PATHS = ["/d0", "/d1", "/d0/c0", "/d0/c1", "/d1/c0"]


def _apply_sequence(client, cloud, ops):
    """Run ops; returns (outcomes, final logical tree)."""
    outcomes = []
    for op, path, payload in ops:
        try:
            if op == "create":
                client.create(path, payload)
                outcomes.append("ok")
            elif op == "set":
                client.set_data(path, payload)
                outcomes.append("ok")
            elif op == "delete":
                client.delete(path)
                outcomes.append("ok")
        except FaaSKeeperError as exc:
            outcomes.append(type(exc).__name__)
    cloud.run(until=cloud.now + 5000)
    tree = {}
    for path in PATHS:
        stat = client.exists(path)
        if stat is None:
            continue
        data, _ = client.get_data(path)
        tree[path] = (data, tuple(client.get_children(path)))
    return outcomes, tree


def _gen_ops(seed, n):
    rng = random.Random(seed)
    ops = []
    for i in range(n):
        op = rng.choice(["create", "set", "delete"])
        path = rng.choice(PATHS)
        ops.append((op, path, f"v{i}".encode()))
    return ops


@pytest.mark.parametrize("seed", [1, 7, 23, 99])
def test_backends_agree_with_each_other_and_zookeeper(seed):
    ops = _gen_ops(seed, 14)
    results = {}

    for backend in BACKENDS:
        cloud = Cloud.aws(seed=1000 + seed)
        service = FaaSKeeperService.deploy(
            cloud, FaaSKeeperConfig(user_store=backend))
        client = service.connect()
        results[backend] = _apply_sequence(client, cloud, ops)

    cloud = Cloud.aws(seed=2000 + seed)
    zk = deploy_zookeeper(cloud)
    results["zookeeper"] = _apply_sequence(zk.connect(), cloud, ops)

    reference_outcomes, reference_tree = results["s3"]
    for system, (outcomes, tree) in results.items():
        assert outcomes == reference_outcomes, f"{system} outcomes diverge"
        assert tree == reference_tree, f"{system} tree diverges"


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hybrid_equals_s3_for_random_sequences(seed):
    """Property form: hybrid and S3 backends are observationally equal."""
    ops = _gen_ops(seed, 10)
    trees = {}
    for backend in ("hybrid", "s3"):
        cloud = Cloud.aws(seed=3000)
        service = FaaSKeeperService.deploy(
            cloud, FaaSKeeperConfig(user_store=backend))
        client = service.connect()
        trees[backend] = _apply_sequence(client, cloud, ops)
    assert trees["hybrid"] == trees["s3"]
