"""Transactional-outbox event streaming (outbox.py).

Covers the three layers: the sink registry and the concrete sinks
(in-proc, JSON-lines file, webhook with injectable transport), the
publisher's delivery contract (txid order, at-least-once via the durable
watermark, retry with exponential backoff, dead-lettering), and the
transactional append itself — the outbox record commits in the same
storage transaction as the commit-log record, so leader redelivery can
never double-append and a committed change can never miss its event.
"""

import json

import pytest

from repro.cloud.errors import FunctionCrash
from repro.faaskeeper import FaaSKeeperConfig
from repro.faaskeeper.chaos import verify_outbox_delivery
from repro.faaskeeper.layout import (
    OUTBOX_DEAD_LETTER_KEY,
    OUTBOX_PUBLISHED_KEY,
    SYSTEM_OUTBOX,
    SYSTEM_STATE,
    log_key,
)
from repro.faaskeeper.outbox import (
    FakeHttp,
    FileSink,
    InProcSink,
    Sink,
    WebhookSink,
    make_sink,
    register_sink,
)
from .conftest import make_service


def outbox_service(seed, **kwargs):
    kwargs.setdefault("commit_log_enabled", True)
    kwargs.setdefault("outbox_enabled", True)
    kwargs.setdefault("outbox_publish_ms", 0.0)  # manual drains
    return make_service(seed=seed, **kwargs)


# --------------------------------------------------------------------------
# Sink registry
# --------------------------------------------------------------------------

def test_make_sink_resolves_every_spec_form(tmp_path):
    ready = InProcSink()
    assert make_sink(ready) is ready
    assert isinstance(make_sink("inproc"), InProcSink)
    fs = make_sink(f"file:{tmp_path}/cdc.jsonl")
    assert isinstance(fs, FileSink) and fs.path == f"{tmp_path}/cdc.jsonl"
    wh = make_sink(("webhook", {"url": "http://example/hook"}))
    assert isinstance(wh, WebhookSink) and wh.url == "http://example/hook"
    with pytest.raises(ValueError):
        make_sink("kafka:topic")
    with pytest.raises(ValueError):
        make_sink(42)
    with pytest.raises(ValueError):
        FileSink("")
    with pytest.raises(ValueError):
        WebhookSink("")


def test_register_sink_plugs_in_new_kinds():
    @register_sink("null")
    class NullSink(Sink):
        def _emit(self, fctx, events):
            return None
            yield

    try:
        sink = make_sink("null")
        assert isinstance(sink, NullSink) and sink.kind == "null"
    finally:
        from repro.faaskeeper.outbox import SINK_SCHEMES
        del SINK_SCHEMES["null"]


def test_duplicate_sink_kinds_get_uniquified_labels():
    cloud, service = outbox_service(
        600, outbox_sinks=[InProcSink(), InProcSink()])
    labels = [label for label, _sink in service.outbox.sinks]
    assert labels == ["inproc", "inproc-2"]
    assert service.outbox.sink("inproc-2") is service.outbox.sinks[1][1]
    assert service.outbox.sink(0) is service.outbox.sinks[0][1]
    with pytest.raises(KeyError):
        service.outbox.sink("nope")


# --------------------------------------------------------------------------
# Append + publish happy path
# --------------------------------------------------------------------------

def test_events_flow_commit_to_sink_in_txid_order():
    seen = []
    cloud, service = outbox_service(
        601, outbox_sinks=[InProcSink(callback=seen.append)])
    c = service.connect()
    c.create("/a", b"x")
    c.set_data("/a", b"y")
    c.create("/b", b"z")
    c.delete("/b")
    result = service.outbox.drain()
    assert result["published"] == 4 and result["backlog"] == 0
    assert [ev["op"] for ev in seen] == \
        ["create", "set_data", "create", "delete"]
    txids = [ev["txid"] for ev in seen]
    assert txids == sorted(txids)
    per_path = [ev["txid"] for ev in seen if ev["path"] == "/a"]
    assert per_path == sorted(per_path)
    assert all(ev["session"] == c.session_id for ev in seen)
    mark = service.system_store.table(SYSTEM_STATE).raw(OUTBOX_PUBLISHED_KEY)
    assert mark["txid"] == max(txids)
    assert verify_outbox_delivery(service, txids) == []
    stats = service.outbox.stats()
    assert stats["appended"] == 4 and stats["published"] == 4
    assert stats["retries"] == 0 and stats["dead_letters"] == 0


def test_redelivered_leader_batch_appends_one_outbox_record():
    """Atomicity: the outbox row rides the commit log's conditional
    ``transact_update``, so the leader crash that redelivers a batch (and
    no-ops the log append) no-ops the outbox append too."""
    cloud, service = outbox_service(602)
    c = service.connect()
    c.create("/a", b"v0")
    service.leader_fns[0].plan_crash(
        "leader_after_log",
        invocations=[service.leader_fns[0].invocations + 1])
    res = c.set_data("/a", b"v1")
    assert service.leader_fns[0].failures == 1  # the crash really happened
    outbox = service.system_store.table(SYSTEM_OUTBOX)
    record = outbox.raw(log_key(res.txid))
    assert record is not None and record["events"] == [["/a", "set_data"]]
    # idempotent redelivery: still exactly one record per txid (the
    # re-append overwrites bit-identically), so exactly one delivery
    assert sorted(outbox.keys()) == [log_key(1), log_key(res.txid)]
    service.outbox.drain()
    assert service.outbox.sink(0).delivered_txids().count(res.txid) == 1
    assert verify_outbox_delivery(service, [1, res.txid]) == []


def test_pure_metadata_records_emit_no_events():
    cloud, service = outbox_service(603)
    assert service.outbox.append_ops(0.0, 99, 0, "s", []) == []
    only_parent = [("/", None, True, "set_children")]
    assert service.outbox.append_ops(0.0, 99, 0, "s", only_parent) == []


def test_drain_respects_batch_limit_and_compacts_published_records():
    cloud, service = outbox_service(604, outbox_batch=2)
    c = service.connect()
    for i in range(5):
        c.create(f"/n{i}", b"d")
    first = service.outbox.drain()
    assert first["published"] == 2 and first["backlog"] == 3
    second = service.outbox.drain()
    assert second["published"] == 2
    third = service.outbox.drain()
    assert third["published"] == 1 and third["backlog"] == 0
    # records below the watermark-at-pass-start are garbage-collected
    assert service.outbox.metrics["compacted"].value > 0
    final = service.outbox.drain()
    assert final["published"] == 0
    remaining = service.system_store.table(SYSTEM_OUTBOX).keys()
    assert len(list(remaining)) == 0  # everything published, everything GCed


def test_scheduled_publisher_drains_without_manual_help():
    cloud, service = make_service(
        seed=605, commit_log_enabled=True, outbox_enabled=True,
        outbox_publish_ms=1_000.0)
    c = service.connect()
    c.create("/a", b"x")
    cloud.run(until=cloud.now + 10_000)
    assert service.outbox.sink(0).delivered_txids() != []
    assert service.outbox.stats()["drains"] >= 1
    # scale-to-zero: closing the last session suspends the publisher
    c.close()
    assert service.outbox_task is not None
    assert not service.outbox_task.enabled


# --------------------------------------------------------------------------
# Sinks
# --------------------------------------------------------------------------

def test_file_sink_writes_a_json_lines_cdc_feed(tmp_path):
    feed = tmp_path / "cdc.jsonl"
    cloud, service = outbox_service(606, outbox_sinks=[f"file:{feed}"])
    c = service.connect()
    c.create("/a", b"x")
    c.set_data("/a", b"y")
    service.outbox.drain()
    lines = [json.loads(line) for line in
             feed.read_text().strip().splitlines()]
    assert [(ev["txid"], ev["path"], ev["op"]) for ev in lines] == \
        [(1, "/a", "create"), (2, "/a", "set_data")]
    assert service.outbox.sink("file").delivered_txids() == [1, 2]


def test_webhook_sink_retries_with_backoff_then_succeeds():
    http = FakeHttp(fail_times=2)
    cloud, service = outbox_service(
        607, outbox_sinks=[WebhookSink("http://example/hook", transport=http)],
        outbox_max_attempts=3, outbox_retry_base_ms=50.0)
    c = service.connect()
    c.create("/a", b"x")
    t0 = cloud.now
    result = service.outbox.drain()
    assert result["published"] == 1
    # 3 requests: two 503s, one 200; backoff 50ms + 100ms elapsed
    assert len(http.requests) == 3
    assert cloud.now - t0 >= 150.0
    assert http.requests[0][0] == "http://example/hook"
    assert http.requests[0][1]["events"][0]["path"] == "/a"
    sink = service.outbox.sink("webhook")
    assert sink.delivered_txids() == [1]
    assert service.outbox.metrics["retries"].labels(sink="webhook").value == 2
    assert service.outbox.dead_letters == []


def test_exhausted_sink_dead_letters_and_the_drain_moves_on():
    good = InProcSink()
    bad = WebhookSink("http://down/hook", transport=FakeHttp(fail_times=99))
    cloud, service = outbox_service(
        608, outbox_sinks=[good, bad], outbox_max_attempts=2,
        outbox_retry_base_ms=1.0)
    c = service.connect()
    c.create("/a", b"x")
    c.create("/b", b"y")
    result = service.outbox.drain()
    assert result["published"] == 2  # the healthy sink keeps the drain alive
    assert good.delivered_txids() == [1, 2]
    assert bad.delivered == []
    # both records parked durably for the webhook sink, with the error
    dead = service.system_store.table(SYSTEM_STATE).raw(
        OUTBOX_DEAD_LETTER_KEY)["items"]
    assert [(d["txid"], d["sink"]) for d in dead] == \
        [(1, "webhook"), (2, "webhook")]
    assert "503" in dead[0]["error"]
    assert service.outbox.dead_letters == dead
    assert service.outbox.metrics["dead_letters"].labels(
        sink="webhook").value == 2
    # the audit accepts dead-lettered events as accounted-for, not lost
    assert verify_outbox_delivery(service, [1, 2]) == []


def test_webhook_without_transport_fails_loudly():
    cloud, service = outbox_service(
        609, outbox_sinks=[WebhookSink("http://example/hook")],
        outbox_max_attempts=1, outbox_retry_base_ms=0.0)
    c = service.connect()
    c.create("/a", b"x")
    service.outbox.drain()
    assert "transport" in service.outbox.dead_letters[0]["error"]


# --------------------------------------------------------------------------
# At-least-once watermark
# --------------------------------------------------------------------------

def test_publisher_crash_before_watermark_redelivers():
    """A crash after the sink delivery but before the watermark write
    must re-deliver the record on the next drain (at-least-once): the
    sink sees a duplicate, the audit still passes because duplicates
    carry identical payloads."""
    cloud, service = outbox_service(610)
    c = service.connect()
    c.create("/a", b"x")
    service.outbox.fn.plan_crash(
        "outbox_after_sink",
        invocations=[service.outbox.fn.invocations + 1])
    with pytest.raises(FunctionCrash):
        service.outbox.drain()
    sink = service.outbox.sink(0)
    assert sink.delivered_txids() == [1]  # delivered, but not marked
    mark = service.system_store.table(SYSTEM_STATE).raw(OUTBOX_PUBLISHED_KEY)
    assert mark is None
    result = service.outbox.drain()
    assert result["published"] == 1
    assert sink.delivered_txids() == [1, 1]  # the at-least-once duplicate
    assert verify_outbox_delivery(service, [1]) == []


def test_crash_before_any_delivery_loses_nothing():
    cloud, service = outbox_service(611)
    c = service.connect()
    c.create("/a", b"x")
    c.create("/b", b"y")
    service.outbox.fn.plan_crash(
        "outbox_entry", invocations=[service.outbox.fn.invocations + 1])
    with pytest.raises(FunctionCrash):
        service.outbox.drain()
    assert service.outbox.sink(0).delivered == []
    result = service.outbox.drain()
    assert result["published"] == 2
    assert service.outbox.sink(0).delivered_txids() == [1, 2]


def test_publish_floor_is_min_over_shards():
    """A txid above the slowest shard's log head is not yet publishable:
    order below the floor is provably gapless, above it is not."""
    cloud, service = outbox_service(612, leader_shards=4)
    c = service.connect()
    paths = ["/a", "/b", "/c", "/d", "/e"]
    for p in paths:
        c.create(p, b"x")
    assert len({service.shard_of(p) for p in paths}) > 1
    floor = cloud.run_process(
        service.outbox.publish_floor(service.system_ctx))
    result = service.outbox.drain()
    assert result["floor"] == floor
    delivered = service.outbox.sink(0).delivered_txids()
    assert delivered == sorted(delivered)
    assert all(txid <= floor for txid in delivered)


# --------------------------------------------------------------------------
# Gating
# --------------------------------------------------------------------------

def test_default_deployment_has_no_outbox():
    cloud, service = make_service(seed=613, outbox_enabled=False)
    assert service.outbox is None and service.outbox_task is None
    c = service.connect()
    c.create("/a", b"x")
    assert SYSTEM_OUTBOX not in service.system_store.tables
    assert "fk_outbox_appended_total" not in service.metrics


def test_outbox_requires_commit_log():
    with pytest.raises(ValueError):
        FaaSKeeperConfig(outbox_enabled=True, commit_log_enabled=False)
    with pytest.raises(ValueError):
        FaaSKeeperConfig(outbox_enabled=True, commit_log_enabled=True,
                         outbox_sinks=[])
    with pytest.raises(ValueError):
        FaaSKeeperConfig(outbox_enabled=True, commit_log_enabled=True,
                         outbox_max_attempts=0)


def test_force_outbox_env_flips_the_default(monkeypatch):
    monkeypatch.setenv("FK_FORCE_OUTBOX", "1")
    forced = FaaSKeeperConfig()
    assert forced.outbox_enabled and forced.commit_log_enabled
    pinned = FaaSKeeperConfig(outbox_enabled=False)
    assert not pinned.outbox_enabled and not pinned.commit_log_enabled
    monkeypatch.delenv("FK_FORCE_OUTBOX")
    assert not FaaSKeeperConfig().outbox_enabled
