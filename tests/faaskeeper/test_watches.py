"""Watch semantics: registration, one-shot firing, ordering (Z4)."""

import pytest

from repro.faaskeeper import EventType
from repro.faaskeeper.layout import SYSTEM_WATCHES
from repro.faaskeeper.model import WatchType
from .conftest import make_service


def settle(cloud, ms=3000):
    cloud.run(until=cloud.now + ms)


def test_data_watch_fires_on_set(service, client):
    events = []
    client.create("/a", b"v0")
    client.get_data("/a", watch=events.append)
    client.set_data("/a", b"v1")
    settle(service.cloud)
    assert len(events) == 1
    assert events[0].type == EventType.NODE_DATA_CHANGED
    assert events[0].path == "/a"
    assert events[0].txid > 0


def test_watch_is_one_shot(service, client):
    events = []
    client.create("/a", b"")
    client.get_data("/a", watch=events.append)
    client.set_data("/a", b"1")
    client.set_data("/a", b"2")
    settle(service.cloud)
    assert len(events) == 1


def test_rearmed_watch_fires_again(service, client):
    events = []
    client.create("/a", b"")
    client.get_data("/a", watch=events.append)
    client.set_data("/a", b"1")
    settle(service.cloud)
    client.get_data("/a", watch=events.append)
    client.set_data("/a", b"2")
    settle(service.cloud)
    assert len(events) == 2


def test_rearming_a_held_watch_lists_the_session_once():
    """Three ``exists`` watches by one session on one path join one
    instance once: a single delivery reaches the session, which runs all
    three callbacks.  An instance that listed the session per re-arm would
    fan out three deliveries and grow by one entry per re-arm until the
    item outgrows the store's item limit."""
    cloud, service = make_service(seed=7)
    client = service.connect()
    client.create("/x", b"")
    calls = []
    for i in range(3):
        client.exists("/x", watch=lambda ev, i=i: calls.append(i))
    watches = service.system_store.table(SYSTEM_WATCHES)
    listed = watches.raw("/x")["inst"][WatchType.EXISTS.value]["sessions"]
    client.set_data("/x", b"1")
    settle(cloud)
    deliveries = service.metrics.get("fk_watch_deliveries_total")
    assert sum(child.value for _labels, child in deliveries.items()) == 1
    assert calls == [0, 1, 2]
    assert listed == [client.session_id]


def test_a_deployments_watch_ids_ignore_earlier_deployments():
    """Watch instance ids are stored (and billed by size), so each
    deployment draws them from its own counter: a same-seed deployment
    must show the same clock and bill whatever earlier deployments in the
    process registered."""
    def watched_write():
        cloud, service = make_service(seed=7)
        client = service.connect()
        client.create("/a", b"")
        client.get_data("/a", watch=lambda _ev: None)
        client.get_children("/a", watch=lambda _ev: None)
        client.set_data("/a", b"x")
        settle(cloud)
        return cloud.now, cloud.meter.total

    first = watched_write()
    _cloud, other = make_service(seed=8)
    bystander = other.connect()
    bystander.create("/b", b"")
    for _ in range(100):
        bystander.exists("/b", watch=lambda _ev: None)
        bystander.set_data("/b", b"")  # fires it: the next arm mints an id
    assert watched_write() == first


def test_exists_watch_fires_on_create(service, client):
    events = []
    assert client.exists("/later", watch=events.append) is None
    client.create("/later", b"")
    settle(service.cloud)
    assert len(events) == 1
    assert events[0].type == EventType.NODE_CREATED


def test_data_watch_fires_on_delete(service, client):
    events = []
    client.create("/a", b"")
    client.get_data("/a", watch=events.append)
    client.delete("/a")
    settle(service.cloud)
    assert len(events) == 1
    assert events[0].type == EventType.NODE_DELETED


def test_children_watch_fires_on_child_create(service, client):
    events = []
    client.create("/p")
    client.get_children("/p", watch=events.append)
    client.create("/p/kid")
    settle(service.cloud)
    assert len(events) == 1
    assert events[0].type == EventType.NODE_CHILDREN_CHANGED
    assert events[0].path == "/p"


def test_children_watch_fires_on_child_delete(service, client):
    events = []
    client.create("/p")
    client.create("/p/kid")
    client.get_children("/p", watch=events.append)
    client.delete("/p/kid")
    settle(service.cloud)
    assert len(events) == 1


def test_children_watch_not_fired_on_data_change(service, client):
    events = []
    client.create("/p")
    client.create("/p/kid")
    client.get_children("/p", watch=events.append)
    client.set_data("/p/kid", b"x")
    client.set_data("/p", b"y")
    settle(service.cloud)
    assert events == []


def test_multiple_sessions_share_watch_instance(service):
    c1, c2 = service.connect(), service.connect()
    e1, e2 = [], []
    c1.create("/a", b"")
    c1.get_data("/a", watch=e1.append)
    c2.get_data("/a", watch=e2.append)
    c1.set_data("/a", b"x")
    settle(service.cloud)
    assert len(e1) == 1
    assert len(e2) == 1
    assert e1[0].txid == e2[0].txid


def test_watcher_sees_notification_before_later_data(service):
    """Z4: a client with a pending notification for txid u must not read
    data of txid v > u before the notification is delivered."""
    writer = service.connect()
    watcher = service.connect()
    order = []

    writer.create("/a", b"")
    writer.create("/b", b"")
    watcher.get_data("/a", watch=lambda ev: order.append(("watch", ev.txid)))

    # Two writes: the first triggers the watch, the second touches /b.
    w1 = writer.set_data("/a", b"x")
    w2 = writer.set_data("/b", b"y")

    data, stat = watcher.get_data("/b")
    order.append(("read-b", stat.modified_tx))
    # If the read returned /b's new version, the watch must already be there.
    if stat.modified_tx >= w2.txid:
        assert order[0][0] == "watch"


def test_epoch_cleared_after_delivery(service, client):
    events = []
    client.create("/a", b"")
    client.get_data("/a", watch=events.append)
    client.set_data("/a", b"x")
    settle(service.cloud, 5000)
    for region in service.config.regions:
        raw = service.system_store.table("fk-system-state").raw(
            f"epoch:{region}")
        assert raw["items"] == []


def test_watch_into_closed_session_is_dropped(service):
    c1, c2 = service.connect(), service.connect()
    events = []
    c1.create("/a", b"")
    c2.get_data("/a", watch=events.append)
    c2.close()
    c1.set_data("/a", b"x")
    settle(service.cloud)
    assert events == []  # no delivery to a closed session


def test_watch_on_sequential_child(service, client):
    events = []
    client.create("/q")
    client.get_children("/q", watch=events.append)
    client.create("/q/n-", sequence=True)
    settle(service.cloud)
    assert len(events) == 1
