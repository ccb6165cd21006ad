"""Transactional-outbox event streaming (outbox.py).

Covers the three layers: the sinks (the default ``inproc`` mirror and
subscribed callbacks, a JSON-lines feed among them), the publisher's
delivery contract (txid order, at-least-once via the durable
watermark, retry with exponential backoff, dead-lettering), and the one
commit record itself — the event record *is* the commit-log record, so
leader redelivery can never double-append, a committed change can never
miss its event, and the publisher is a cursor that scans nothing, deletes
nothing and pins log compaction at its watermark.  The publisher runs when
the log moves — the leader wakes it after each batch — so most tests let
the triggered passes settle rather than drain by hand.
"""

import json

import pytest

from repro.cloud.errors import FunctionCrash
from repro.faaskeeper import FaaSKeeperConfig, NodeExistsError, outbox
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
from repro.faaskeeper.snapshot import log_bounds
from ..helpers.metrics import total
from .conftest import crash_next, make_service


def outbox_service(seed, **kwargs):
    kwargs.setdefault("commit_log_enabled", True)
    kwargs.setdefault("outbox_enabled", True)
    return make_service(seed=seed, **kwargs)


def settle(cloud, ms=10_000):
    """Let the triggered publisher passes (and their retries) finish."""
    cloud.run(until=cloud.now + ms)


def append_by_hand(service, txids, shard=0):
    """Log one ``create`` record per txid the way the leader would, minus
    the leader: no batch ends, so no publisher trigger is sent."""
    log = service.system_store.table(SYSTEM_LOG)
    for txid in txids:
        log._store(log_key(txid), {
            "txid": txid, "shard": shard, "session": "s",
            "ts": service.cloud.now,
            "writes": [[f"/n{txid}", {"data": b"d"}, False, "create"]]})
    service.system_store.table(SYSTEM_STATE)._store(
        LOG_HEAD_KEY, {f"s{shard}": max(txids)})


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
    settle(cloud)
    # the triggered passes left nothing for a manual drain
    assert service.outbox.drain() == {"published": 0, "floor": 4,
                                      "backlog": 0}
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
    assert service.metrics.get("fk_log_appends_total").value == 4
    # four events at each of the two sinks
    assert total(service, "fk_outbox_events_published_total") == 8
    assert total(service, "fk_outbox_retries_total") == 0
    assert total(service, "fk_outbox_dead_letters_total") == 0


def test_redelivered_leader_batch_appends_one_outbox_record():
    """Atomicity: the event record *is* the commit-log record, written
    under the log-head condition, so the leader crash that redelivers a
    batch (and no-ops the log append) cannot mint a second event."""
    cloud, service = outbox_service(602)
    c = service.connect()
    c.create("/a", b"v0")
    # dies after the log append, before it replicates
    crash_next(service.leader_fns[0], "before:write_node#1")
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
    settle(cloud)
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
        c.create("/a", b"dup")                             # no txid 2
    settle(cloud)                                          # 1 is published
    # txid 3: parent metadata only, written the way the leader would
    service.system_store.table(SYSTEM_LOG)._store(log_key(3), {
        "txid": 3, "shard": 0, "session": "s", "ts": cloud.now,
        "writes": [["/", {"children": ["a"], "cversion": 1}, True,
                    "create"]]})
    service.system_store.table(SYSTEM_STATE)._store(LOG_HEAD_KEY, {"s0": 3})
    assert log_txids(service) == [1, 3]
    result = service.outbox.drain()
    assert result == {"published": 0, "floor": 3, "backlog": 0}
    assert service.outbox.sink(0).delivered_txids() == [1]
    assert published_mark(service) == 3
    assert snapshot_and_compact(cloud, service) == 2
    assert log_txids(service) == []


def test_drain_respects_batch_limit_and_compacts_published_records(
        monkeypatch):
    """A pass moves the cursor at most ``PASS_LIMIT`` txids and, stopping
    short of the floor, re-sends its own trigger, so the rest follows with
    no further write; a pass is point reads and watermark writes only — no
    ``scan``, no ``delete_item`` — and the log shrinks only behind the
    published watermark."""
    monkeypatch.setattr(outbox, "PASS_LIMIT", 2)
    cloud, service = outbox_service(604)
    append_by_hand(service, range(1, 6))  # no session: no cron runs either
    store = service.system_store
    calls = []
    for method in ("scan", "delete_item"):
        real = getattr(store, method)
        setattr(store, method,
                lambda *a, _m=method, _real=real, **kw:
                calls.append(_m) or _real(*a, **kw))
    first = service.outbox.drain()
    assert first == {"published": 2, "floor": 5, "backlog": 3}
    assert service.metrics.get("fk_outbox_backlog").value == 3
    assert published_mark(service) == 2
    settle(cloud)  # the re-sent trigger: 2 more, then the last one
    assert service.metrics.get("fk_outbox_drains_total").value == 3
    assert service.metrics.get("fk_outbox_backlog").value == 0
    assert calls == []  # a pass issues no scan and no delete_item
    assert published_mark(service) == 5
    assert service.outbox.sink(0).delivered_txids() == [1, 2, 3, 4, 5]
    assert snapshot_and_compact(cloud, service) == 5
    assert calls.count("scan") == 0  # a snapshot scans no table either
    assert log_txids(service) == []  # everything published, everything cut


def test_compaction_never_truncates_above_outbox_published():
    """Mirror of the lagging-region clamp: an unpublished record is never
    eaten — not while every pass crashes between the sink delivery and the
    watermark write, and not once the passes recover."""
    cloud, service = outbox_service(614)
    fn = service.outbox.fn
    # every pass dies before its first watermark write
    cloud.runtime.plan_crash(*(f"fk-outbox:{i}:before:update_item#1"
                               for i in range(1, 1_000)))
    c = service.connect()
    for i in range(5):
        c.set_data("/a", f"v{i}".encode()) if i else c.create("/a", b"v0")
    settle(cloud)
    sink = service.outbox.sink(0)
    # every pass delivered txid 1 and died before the watermark moved
    assert fn.failures >= 2 and set(sink.delivered_txids()) == {1}
    assert published_mark(service) == 0
    assert snapshot_and_compact(cloud, service) == 0   # still pinned at 0
    assert log_txids(service) == [1, 2, 3, 4, 5]
    # the queue retries the pass until it lands: record 1 is still there
    fn.crash_plan = None
    settle(cloud)
    assert sink.delivered_txids()[-5:] == [1, 2, 3, 4, 5]
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
    settle(cloud)
    assert total(service, "fk_outbox_events_published_total") == 2
    events = service.outbox.sink(0).delivered
    assert [(ev["txid"], ev["path"], ev["op"]) for ev in events] == \
        [(1, "/big", "create"), (2, "/big", "set_data")]
    assert all("data" not in ev and "writes" not in ev for ev in events)


def test_scheduled_publisher_drains_without_manual_help():
    """The leader wakes the publisher after each batch it logs: no cron,
    no manual drain."""
    cloud, service = outbox_service(605)
    (stage,) = [s for s in service.stages if s.kind == "outbox"]
    assert stage.task is None and stage.queue is service.outbox.queue
    c = service.connect()
    c.create("/a", b"x")
    settle(cloud)
    assert service.outbox.sink(0).delivered_txids() == [1]
    assert service.metrics.get("fk_outbox_drains_total").value >= 1


def test_an_idle_hour_invokes_no_publisher_and_no_snapshot():
    """Scale to zero with the log on: once the one create has settled, an
    idle virtual hour with open sessions invokes neither log consumer
    (a publisher cron used to drain an empty log once a second)."""
    cloud, service = outbox_service(7)
    c, *_rest = service.connect_many(10)
    c.create("/a", b"x")
    settle(cloud)
    stages = [s for s in service.stages if s.kind in ("outbox", "snapshot")]
    before = {s.name: s.fn.invocations for s in stages}
    assert before["fk-outbox"] >= 1
    usd = service.cost_breakdown()
    cloud.run(until=cloud.now + 3_600_000)
    assert {s.name: s.fn.invocations for s in stages} == before
    after = service.cost_breakdown()
    assert after["outbox"] == usd["outbox"]
    assert after["snapshot"] == usd["snapshot"] == 0
    assert after["heartbeat"] > usd["heartbeat"]  # the hour did pass


def test_a_burst_beyond_the_pass_limit_publishes_with_no_further_write(
        monkeypatch):
    """A burst the publisher cannot take in one pass: the pass that stops
    short re-sends its own trigger, so every event goes out although no
    later write wakes the publisher again."""
    monkeypatch.setattr(outbox, "PASS_LIMIT", 3)
    cloud, service = outbox_service(617)
    queue = service.outbox.queue
    resumes = []
    send = queue.send

    def spy(ctx, body, *args, **kwargs):
        if "resume" in body:
            resumes.append(body["resume"])
        return send(ctx, body, *args, **kwargs)

    queue.send = spy
    c = service.connect()
    paths = [f"/n{i}" for i in range(12)]
    futures = [c.create_async(path, b"x") for path in paths]
    settle(cloud)
    assert [f.wait() for f in futures] == paths
    acked = [(c.exists(path).created_tx, path) for path in paths]
    assert resumes, "no pass stopped short of the floor"
    assert service.outbox.sink(0).delivered_txids() == list(range(1, 13))
    assert published_mark(service) == 12
    assert verify_outbox_delivery(service, acked) == []


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
    settle(cloud)
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
    settle(cloud)
    assert service.outbox.sink(0).delivered_txids() == [1]
    # 3 attempts: two failures, one success; backoff 50ms + 100ms elapsed
    assert flaky.failures == 2
    lag = service.metrics.get("fk_outbox_publish_lag_ms")
    assert lag.quantile(0.5) >= 150.0
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
    settle(cloud)
    # the healthy sink keeps the passes alive
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
    must re-deliver the record on the queue's retry of the pass
    (at-least-once): the sink sees a duplicate, the audit still passes
    because duplicates carry identical payloads."""
    cloud, service = outbox_service(610)
    crash_next(service.outbox.fn, "before:update_item#1")
    c = service.connect()
    c.create("/a", b"x")
    settle(cloud)
    assert service.outbox.fn.failures == 1
    sink = service.outbox.sink(0)
    assert sink.delivered_txids() == [1, 1]  # the at-least-once duplicate
    assert published_mark(service) == 1
    assert verify_outbox_delivery(service, [(1, "/a")]) == []


def test_crash_before_any_delivery_loses_nothing():
    cloud, service = outbox_service(611)
    crash_next(service.outbox.fn, "start")
    c = service.connect()
    c.create("/a", b"x")
    c.create("/b", b"y")
    settle(cloud)
    assert service.outbox.fn.failures == 1
    assert service.outbox.sink(0).delivered_txids() == [1, 2]


def test_crash_between_reading_a_record_and_its_delivery_loses_nothing():
    """The publisher dies after reading the first record from the log,
    before any sink saw it: the retried pass delivers it once."""
    cloud, service = outbox_service(611)
    crash_next(service.outbox.fn, "after:get_item#3")
    c = service.connect()
    c.create("/a", b"x")
    settle(cloud)
    assert service.outbox.fn.failures == 1
    assert service.outbox.sink(0).delivered_txids() == [1]
    assert published_mark(service) == 1


def test_publish_floor_is_min_over_shards():
    """A txid above a busy shard's log head is not yet publishable: the
    floor is the min over the shards still holding an unlogged txid
    (their issued mark above their head), so order below it is provably
    gapless; a shard that has logged all it was given bounds nothing."""
    assert log_bounds({"s0": 4, "s1": 7}, [6, 7]) == (4, 7)
    assert log_bounds({"s0": 6, "s1": 7}, [6, 9]) == (7, 7)
    assert log_bounds({"s0": 6, "s1": 7}, [6, 7]) == (7, 7)
    assert log_bounds(None, [0, 0, 0]) == (0, 0)
    cloud, service = outbox_service(612, leader_shards=4)
    c = service.connect()
    paths = ["/a", "/b", "/c", "/d", "/e"]
    futures = [c.create_async(p, b"x") for p in paths]
    assert len({service.shard_of(p) for p in paths}) > 1
    state = service.system_store.table(SYSTEM_STATE)
    busy_seen = 0
    while not all(f.done for f in futures):
        cloud.run(until=cloud.now + 1)
        heads = state.raw(LOG_HEAD_KEY)
        issued = [queue.issued for queue in service.leader_queues]
        floor, _top = log_bounds(heads, issued)
        for shard, mark in enumerate(issued):
            head = (heads or {}).get(f"s{shard}", 0)
            if head < mark:
                busy_seen += 1
                assert floor <= head  # a busy shard bounds the floor
    assert busy_seen
    settle(cloud)
    assert cloud.run_process(service.snapshots.bounds(service.system_ctx)) \
        == (5, 5)
    assert service.outbox.sink(0).delivered_txids() == [1, 2, 3, 4, 5]


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
