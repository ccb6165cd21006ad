"""Fixtures for FaaSKeeper tests."""

import pytest

from repro.cloud import Cloud
from repro.faaskeeper import FaaSKeeperConfig, FaaSKeeperService


@pytest.fixture
def cloud():
    return Cloud.aws(seed=2024)


@pytest.fixture
def service(cloud):
    return FaaSKeeperService.deploy(cloud)


@pytest.fixture
def client(service):
    return service.connect()


def make_service(seed=2024, **config_kwargs):
    cloud = Cloud.aws(seed=seed)
    service = FaaSKeeperService.deploy(cloud, FaaSKeeperConfig(**config_kwargs))
    return cloud, service


def crash_next(fn, window):
    """Kill ``fn``'s next invocation in crash window ``window`` (the
    ``fn:invocation:window`` entry of ``FunctionRuntime.plan_crash``)."""
    fn.runtime.plan_crash(f"{fn.spec.name}:{fn.invocations + 1}:{window}")


def cap_redeliveries(service, client, max_receive):
    """Lower ``client``'s session-queue redelivery cap (deployed at
    ``follower.FOLLOWER_MAX_RECEIVE``).  The queue opens with the session's
    first request, so call this after one."""
    queue = service._session_queues[client.session_id]
    queue.max_receive = max_receive
    return queue
