"""Transactional-outbox event streaming (outbox.py).

Covers the three layers: the sinks (the default ``inproc`` mirror and
subscribed callbacks, a JSON-lines feed among them), the publisher's
delivery contract (txid order, at-least-once via the durable
watermark, retry with exponential backoff, dead-lettering), and the one
commit record itself — the event record *is* the commit-log record, so
leader redelivery can never double-append, a committed change can never
miss its event, and the publisher is a cursor that scans nothing, deletes
nothing and pins log compaction at its watermark.
"""

import json

import pytest

from repro.cloud.errors import FunctionCrash
from repro.faaskeeper import FaaSKeeperConfig, NodeExistsError
from repro.faaskeeper.chaos import verify_outbox_delivery
from repro.faaskeeper.layout import (
    LOG_HEAD_KEY,
    OUTBOX_DEAD_LETTER_KEY,
    OUTBOX_PUBLISHED_KEY,
    SYSTEM_LOG,
    SYSTEM_STATE,
    log_key,
)
from repro.faaskeeper.outbox import MAX_ATTEMPTS, RETRY_BASE_MS
from .conftest import make_service


def outbox_service(seed, **kwargs):
    kwargs.setdefault("commit_log_enabled", True)
    kwargs.setdefault("outbox_enabled", True)
    kwargs.setdefault("outbox_publish_ms", 0.0)  # manual drains
    return make_service(seed=seed, **kwargs)


def published_mark(service):
    item = service.system_store.table(SYSTEM_STATE).raw(OUTBOX_PUBLISHED_KEY)
    return (item or {}).get("txid", 0)


def log_txids(service):
    return sorted(int(k) for k in service.system_store.table(SYSTEM_LOG).keys())


def snapshot_and_compact(cloud, service):
    cloud.run_process(service.snapshots.take_snapshot(service.system_ctx))
    return cloud.run_process(service.snapshots.compact(service.system_ctx))


# --------------------------------------------------------------------------
# Sinks
# --------------------------------------------------------------------------

def test_duplicate_sink_kinds_get_uniquified_labels():
    cloud, service = outbox_service(600)
    added = service.outbox.subscribe(lambda event: None)
    assert [sink.label for sink in service.outbox.sinks] == \
        ["inproc", "inproc-2"]
    assert service.outbox.sink("inproc-2") is added is service.outbox.sinks[1]
    assert service.outbox.sink(0) is service.outbox.sinks[0]
    with pytest.raises(KeyError):
        service.outbox.sink("nope")


# --------------------------------------------------------------------------
# Append + publish happy path
# --------------------------------------------------------------------------

def test_events_flow_commit_to_sink_in_txid_order():
    seen = []
    cloud, service = outbox_service(601)
    service.outbox.subscribe(seen.append)
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
    assert published_mark(service) == max(txids)
    assert verify_outbox_delivery(
        service, list(zip(txids, ["/a", "/a", "/b", "/b"]))) == []
    stats = service.outbox.stats()
    assert service.metrics.get("fk_log_appends_total").value == 4
    assert stats["published"] == 8  # four events at each of the two sinks
    assert stats["retries"] == 0 and stats["dead_letters"] == 0


def test_redelivered_leader_batch_appends_one_outbox_record():
    """Atomicity: the event record *is* the commit-log record, written
    under the log-head condition, so the leader crash that redelivers a
    batch (and no-ops the log append) cannot mint a second event."""
    cloud, service = outbox_service(602)
    c = service.connect()
    c.create("/a", b"v0")
    service.leader_fns[0].plan_crash(
        "leader_after_log",
        invocations=[service.leader_fns[0].invocations + 1])
    t0 = cloud.now
    res = c.set_data("/a", b"v1")
    assert service.leader_fns[0].failures == 1  # the crash really happened
    record = service.system_store.table(SYSTEM_LOG).raw(log_key(res.txid))
    assert record["session"] == c.session_id
    assert t0 < record["ts"] < cloud.now
    assert [w[0] for w in record["writes"]] == ["/a"]
    # idempotent redelivery: still exactly one record per txid (the
    # re-append overwrites bit-identically), so exactly one delivery
    assert log_txids(service) == [1, res.txid]
    assert service.metrics.get("fk_log_appends_total").value == 3
    service.outbox.drain()
    sink = service.outbox.sink(0)
    assert sink.delivered_txids().count(res.txid) == 1
    event = sink.delivered[-1]
    assert (event["path"], event["op"]) == ("/a", "set_data")
    assert (event["session"], event["ts"]) == (record["session"], record["ts"])
    assert verify_outbox_delivery(service, [(1, "/a"), (res.txid, "/a")]) == []


def test_the_commit_transaction_has_two_legs_with_the_outbox_on_or_off():
    """One commit record: the leader's log append writes the log item and
    the shard's head — never a third item for the outbox — and no outbox
    table exists in any deployment."""
    for outbox in (True, False):
        cloud, service = outbox_service(616, outbox_enabled=outbox)
        legs = []
        real = service.system_store.transact_update

        def spy(ctx, ops, real=real, legs=legs, **kwargs):
            legs.append([(table, key) for table, key, _updates, _cond in ops])
            return real(ctx, ops, **kwargs)

        service.system_store.transact_update = spy
        c = service.connect()
        c.create("/a", b"x")
        appends = [ops for ops in legs if ops[0][0] == SYSTEM_LOG]
        assert appends == [[(SYSTEM_LOG, log_key(1)),
                            (SYSTEM_STATE, LOG_HEAD_KEY)]], (outbox, legs)
        assert not any("outbox" in name for name in service.system_store.tables)


def test_pure_metadata_records_emit_no_events():
    """A record with no node write (here: hand-appended, parent metadata
    only) and a burned txid publish nothing — and still advance the
    cursor, so compaction is not pinned behind them."""
    cloud, service = outbox_service(603)
    c = service.connect()
    c.create("/a", b"x")                                   # txid 1
    with pytest.raises(NodeExistsError):
        c.create("/a", b"dup")                             # burns txid 2
    # txid 3: parent metadata only, written the way the leader would
    service.system_store.table(SYSTEM_LOG)._store(log_key(3), {
        "txid": 3, "shard": 0, "session": "s", "ts": cloud.now,
        "writes": [["/", {"children": ["a"], "cversion": 1,
                          "meta_only": True}, True, "create"]]})
    service.system_store.table(SYSTEM_STATE)._store(LOG_HEAD_KEY, {"s0": 3})
    assert log_txids(service) == [1, 3]
    result = service.outbox.drain()
    assert result == {"published": 1, "floor": 3, "backlog": 0}
    assert service.outbox.sink(0).delivered_txids() == [1]
    assert published_mark(service) == 3
    assert snapshot_and_compact(cloud, service) == 2
    assert log_txids(service) == []


def test_drain_respects_batch_limit_and_compacts_published_records():
    """The cursor moves ``outbox_batch`` txids per pass; a drain is point
    reads and watermark writes only — no ``scan``, no ``delete_item`` —
    and the log shrinks only behind the published watermark."""
    cloud, service = outbox_service(604, outbox_batch=2)
    c = service.connect()
    for i in range(5):
        c.create(f"/n{i}", b"d")
    store = service.system_store
    calls = []
    for method in ("scan", "delete_item"):
        real = getattr(store, method)
        setattr(store, method,
                lambda *a, _m=method, _real=real, **kw:
                calls.append(_m) or _real(*a, **kw))
    first = service.outbox.drain()
    assert first["published"] == 2 and first["backlog"] == 3
    assert service.metrics.get("fk_outbox_backlog").value == 3
    second = service.outbox.drain()
    assert second["published"] == 2 and second["backlog"] == 1
    assert calls == []  # a drain issues no scan and no delete_item
    # the fold has seen all five records; compaction stops at the cursor
    assert snapshot_and_compact(cloud, service) == 4
    assert log_txids(service) == [5]
    third = service.outbox.drain()
    assert third["published"] == 1 and third["backlog"] == 0
    final = service.outbox.drain()
    assert final["published"] == 0
    assert calls.count("scan") == 2  # the snapshot's checkpoint, not a drain
    assert snapshot_and_compact(cloud, service) == 1
    assert log_txids(service) == []  # everything published, everything cut
    assert service.outbox.sink(0).delivered_txids() == [1, 2, 3, 4, 5]


def test_compaction_never_truncates_above_outbox_published():
    """Mirror of the lagging-region clamp: an unpublished record is never
    eaten — not while the publisher has not run, and not when it crashed
    between the sink delivery and the watermark write."""
    cloud, service = outbox_service(614)
    c = service.connect()
    for i in range(5):
        c.set_data("/a", f"v{i}".encode()) if i else c.create("/a", b"v0")
    assert snapshot_and_compact(cloud, service) == 0   # nothing published
    assert log_txids(service) == [1, 2, 3, 4, 5]
    # deliver txid 1, then die before the watermark moves
    service.outbox.fn.plan_crash(
        "outbox_after_sink", invocations=[service.outbox.fn.invocations + 1])
    with pytest.raises(FunctionCrash):
        service.outbox.drain()
    sink = service.outbox.sink(0)
    assert sink.delivered_txids() == [1] and published_mark(service) == 0
    assert snapshot_and_compact(cloud, service) == 0   # still pinned at 0
    assert log_txids(service) == [1, 2, 3, 4, 5]
    # the redelivery needs record 1 — it is still there
    assert service.outbox.drain()["published"] == 5
    assert sink.delivered_txids() == [1, 1, 2, 3, 4, 5]
    assert snapshot_and_compact(cloud, service) == 5
    meta = service.system_store.table(SYSTEM_STATE).raw("snapshot:meta")
    assert meta["compacted"] == published_mark(service) == 5
    assert verify_outbox_delivery(
        service, [(txid, "/a") for txid in range(1, 6)]) == []


def test_a_64kb_record_publishes():
    """The adversarial size: the publisher reads the full log record, not
    a slim event row — it must still deliver, with the same event."""
    cloud, service = outbox_service(615)
    c = service.connect()
    c.create("/big", b"x" * 64 * 1024)
    c.set_data("/big", b"y" * 64 * 1024)
    assert service.outbox.drain()["published"] == 2
    events = service.outbox.sink(0).delivered
    assert [(ev["txid"], ev["path"], ev["op"]) for ev in events] == \
        [(1, "/big", "create"), (2, "/big", "set_data")]
    assert all("data" not in ev and "writes" not in ev for ev in events)


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
    (task,) = [s.task for s in service.stages if s.kind == "outbox"]
    assert task is not None and not task.enabled


# --------------------------------------------------------------------------
# Subscribers: retry and dead-letter
# --------------------------------------------------------------------------

def failing(times):
    """A subscriber callback that raises on its first ``times`` events and
    records the rest on ``callback.seen``."""
    def callback(event):
        if callback.failures < times:
            callback.failures += 1
            raise RuntimeError("consumer down")
        callback.seen.append(event)
    callback.failures, callback.seen = 0, []
    return callback


def test_file_sink_writes_a_json_lines_cdc_feed(tmp_path):
    feed = tmp_path / "cdc.jsonl"

    def append_line(event):
        with open(feed, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(event, sort_keys=True) + "\n")

    cloud, service = outbox_service(606)
    sink = service.outbox.subscribe(append_line)
    c = service.connect()
    c.create("/a", b"x")
    c.set_data("/a", b"y")
    service.outbox.drain()
    lines = [json.loads(line) for line in
             feed.read_text().strip().splitlines()]
    assert [(ev["txid"], ev["path"], ev["op"]) for ev in lines] == \
        [(1, "/a", "create"), (2, "/a", "set_data")]
    assert sink.delivered == lines


def test_sink_retries_with_backoff_then_succeeds():
    flaky = failing(2)
    cloud, service = outbox_service(607)
    service.outbox.subscribe(flaky)
    assert (MAX_ATTEMPTS, RETRY_BASE_MS) == (3, 50.0)
    c = service.connect()
    c.create("/a", b"x")
    t0 = cloud.now
    result = service.outbox.drain()
    assert result["published"] == 1
    # 3 attempts: two failures, one success; backoff 50ms + 100ms elapsed
    assert flaky.failures == 2
    assert cloud.now - t0 >= 150.0
    assert [ev["path"] for ev in flaky.seen] == ["/a"]
    assert service.outbox.sink("inproc-2").delivered_txids() == [1]
    assert service.outbox.metrics["retries"].labels(
        sink="inproc-2").value == 2
    assert service.outbox.dead_letters == []


def test_exhausted_sink_dead_letters_and_the_drain_moves_on():
    cloud, service = outbox_service(608)
    good = service.outbox.sink("inproc")
    bad = service.outbox.subscribe(failing(99))
    c = service.connect()
    c.create("/a", b"x")
    c.create("/b", b"y")
    result = service.outbox.drain()
    assert result["published"] == 2  # the healthy sink keeps the drain alive
    assert good.delivered_txids() == [1, 2]
    assert bad.delivered == []
    # both records parked durably for the failing sink, with the error
    dead = service.system_store.table(SYSTEM_STATE).raw(
        OUTBOX_DEAD_LETTER_KEY)["items"]
    assert [(d["txid"], d["sink"]) for d in dead] == \
        [(1, "inproc-2"), (2, "inproc-2")]
    assert "consumer down" in dead[0]["error"]
    assert service.outbox.dead_letters == dead
    assert service.outbox.metrics["dead_letters"].labels(
        sink="inproc-2").value == 2
    # the audit accepts dead-lettered events as accounted-for, not lost
    assert verify_outbox_delivery(service, [(1, "/a"), (2, "/b")]) == []


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
    assert published_mark(service) == 0
    result = service.outbox.drain()
    assert result["published"] == 1
    assert sink.delivered_txids() == [1, 1]  # the at-least-once duplicate
    assert verify_outbox_delivery(service, [(1, "/a")]) == []


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
    heads = service.system_store.table(SYSTEM_STATE).raw(LOG_HEAD_KEY)
    floor = min(heads.get(f"s{i}", 0) for i in range(4))
    assert (floor, max(heads.values())) == cloud.run_process(
        service.snapshots.bounds(service.system_ctx))
    result = service.outbox.drain()
    assert result["floor"] == floor
    delivered = service.outbox.sink(0).delivered_txids()
    assert delivered == sorted(delivered)
    assert all(txid <= floor for txid in delivered)


# --------------------------------------------------------------------------
# Gating
# --------------------------------------------------------------------------

def test_default_deployment_has_no_outbox():
    cloud, service = make_service(seed=613)
    assert service.outbox is None
    assert not any(s.kind == "outbox" for s in service.stages)
    c = service.connect()
    c.create("/a", b"x")
    assert not any("outbox" in name for name in service.system_store.tables)
    assert "fk_outbox_drains_total" not in service.metrics


def test_outbox_requires_commit_log():
    with pytest.raises(ValueError):
        FaaSKeeperConfig(outbox_enabled=True, commit_log_enabled=False)
    with pytest.raises(ValueError):
        FaaSKeeperConfig(outbox_enabled=True, commit_log_enabled=True,
                         outbox_batch=0)
