"""Unit tests for the simulated key-value store."""

import pytest

from repro.cloud import (
    Add,
    Attr,
    ConditionFailed,
    ItemTooLarge,
    ListAppend,
    NoSuchTable,
    Set,
    SetIfNotExists,
)
from repro.fklint.sanitize import SanitizerError


def test_put_and_get_roundtrip(cloud, ctx):
    kv = cloud.kv()
    kv.create_table("t")

    def flow():
        yield from kv.put_item(ctx, "t", "k", {"a": 1})
        item = yield from kv.get_item(ctx, "t", "k")
        return item

    item = cloud.run_process(flow())
    assert item == {"a": 1}
    assert cloud.now > 0  # latency was charged


def test_get_missing_returns_none(cloud, ctx):
    kv = cloud.kv()
    kv.create_table("t")
    item = cloud.run_process(kv.get_item(ctx, "t", "nope"))
    assert item is None


def test_no_such_table(cloud, ctx):
    kv = cloud.kv()
    with pytest.raises(NoSuchTable):
        cloud.run_process(kv.get_item(ctx, "missing", "k"))


def test_returned_item_is_a_copy(cloud, ctx):
    kv = cloud.kv()
    kv.create_table("t")

    def flow():
        yield from kv.put_item(ctx, "t", "k", {"a": [1]})
        item = yield from kv.get_item(ctx, "t", "k")
        item["a"].append(99)  # must not leak into the store
        again = yield from kv.get_item(ctx, "t", "k")
        return again

    assert cloud.run_process(flow()) == {"a": [1]}


def test_conditional_put_fails(cloud, ctx):
    kv = cloud.kv()
    kv.create_table("t")

    def flow():
        yield from kv.put_item(ctx, "t", "k", {"v": 1})
        yield from kv.put_item(ctx, "t", "k", {"v": 2},
                               condition=Attr("v") == 99)

    with pytest.raises(ConditionFailed):
        cloud.run_process(flow())
    assert kv.table("t").raw("k") == {"v": 1}


def test_update_item_applies_actions(cloud, ctx):
    kv = cloud.kv()
    kv.create_table("t")

    def flow():
        yield from kv.put_item(ctx, "t", "k", {"cnt": 0})
        new = yield from kv.update_item(ctx, "t", "k",
                                        [Add("cnt", 5), Set("flag", True)])
        return new

    new = cloud.run_process(flow())
    assert new == {"cnt": 5, "flag": True}


def test_update_item_creates_item_when_missing(cloud, ctx):
    kv = cloud.kv()
    kv.create_table("t")
    new = cloud.run_process(
        kv.update_item(cloud.client_ctx(), "t", "fresh", [Add("cnt", 1)])
    )
    assert new == {"cnt": 1}


def test_update_condition_failure_leaves_item_untouched(cloud, ctx):
    kv = cloud.kv()
    kv.create_table("t")

    def flow():
        yield from kv.put_item(ctx, "t", "k", {"v": 1})
        try:
            yield from kv.update_item(ctx, "t", "k", [Set("v", 2)],
                                      condition=Attr("v") == 42)
        except ConditionFailed as exc:
            return exc.item

    old = cloud.run_process(flow())
    assert old == {"v": 1}
    assert kv.table("t").raw("k") == {"v": 1}


def test_item_size_limit_enforced(cloud, ctx):
    kv = cloud.kv()
    kv.create_table("t")
    big = {"data": b"x" * (401 * 1024)}
    with pytest.raises(ItemTooLarge):
        cloud.run_process(kv.put_item(ctx, "t", "k", big))


def test_update_growing_past_limit_rejected(cloud, ctx):
    kv = cloud.kv()
    kv.create_table("t")

    def flow():
        yield from kv.put_item(ctx, "t", "k", {"data": b"x" * (399 * 1024)})
        yield from kv.update_item(ctx, "t", "k",
                                  [Set("more", b"y" * (2 * 1024))])

    with pytest.raises(ItemTooLarge):
        cloud.run_process(flow())


def test_delete_item(cloud, ctx):
    kv = cloud.kv()
    kv.create_table("t")

    def flow():
        yield from kv.put_item(ctx, "t", "k", {"v": 1})
        yield from kv.delete_item(ctx, "t", "k")
        return (yield from kv.get_item(ctx, "t", "k"))

    assert cloud.run_process(flow()) is None


def test_delete_conditional_failure(cloud, ctx):
    kv = cloud.kv()
    kv.create_table("t")

    def flow():
        yield from kv.put_item(ctx, "t", "k", {"v": 1})
        yield from kv.delete_item(ctx, "t", "k", condition=Attr("v") == 9)

    with pytest.raises(ConditionFailed):
        cloud.run_process(flow())
    assert kv.table("t").raw("k") == {"v": 1}


def test_scan_returns_all_items(cloud, ctx):
    kv = cloud.kv()
    kv.create_table("t")

    def flow():
        for i in range(5):
            yield from kv.put_item(ctx, "t", f"k{i}", {"i": i})
        return (yield from kv.scan(ctx, "t"))

    items = cloud.run_process(flow())
    assert len(items) == 5
    assert items["k3"] == {"i": 3}


def test_strong_read_sees_latest_write(cloud, ctx):
    kv = cloud.kv()
    kv.create_table("t")

    def flow():
        yield from kv.put_item(ctx, "t", "k", {"v": 1})
        yield from kv.put_item(ctx, "t", "k", {"v": 2})
        return (yield from kv.get_item(ctx, "t", "k", consistent=True))

    assert cloud.run_process(flow()) == {"v": 2}


def test_eventual_read_can_be_stale(cloud, ctx):
    """At least one eventually-consistent read right after a write must
    return the previous version (this is why FaaSKeeper's system storage
    requires strong reads, Section 3.3)."""
    kv = cloud.kv()
    kv.create_table("t")

    def flow():
        yield from kv.put_item(ctx, "t", "k", {"v": 1})
        yield from kv.put_item(ctx, "t", "k", {"v": 2})
        stale = 0
        for _ in range(60):
            item = yield from kv.get_item(ctx, "t", "k", consistent=False)
            if item == {"v": 1}:
                stale += 1
        return stale

    assert cloud.run_process(flow()) > 0


def test_costs_metered_per_kb(cloud, ctx):
    kv = cloud.kv()
    kv.create_table("t")

    def flow():
        yield from kv.put_item(ctx, "t", "k", {"data": b"x" * 10 * 1024})

    cloud.run_process(flow())
    # 10 kB write = ~11 write units at $1.25e-6 (attribute overhead rounds up)
    total = cloud.meter.total
    assert 10 * 1.25e-6 <= total <= 12 * 1.25e-6


def test_write_latency_grows_with_size(cloud):
    kv = cloud.kv()
    kv.create_table("t")
    ctx = cloud.client_ctx()

    def timed_write(size):
        def flow():
            t0 = cloud.now
            yield from kv.put_item(ctx, "t", "k", {"data": b"x" * size})
            return cloud.now - t0
        return cloud.run_process(flow())

    small = min(timed_write(1024) for _ in range(5))
    large = min(timed_write(64 * 1024) for _ in range(5))
    assert large > small * 5  # ~1 ms/kB bandwidth term (Table 6a)


def test_conditional_update_slower_than_regular(cloud):
    """Table 6a: the timed-lock path adds ~2.5 ms to the median write."""
    kv = cloud.kv()
    kv.create_table("t")
    ctx = cloud.client_ctx()

    def run_many(conditional):
        def flow():
            yield from kv.put_item(ctx, "t", "k", {"v": 0})
            times = []
            for _ in range(80):
                t0 = cloud.now
                cond = (Attr("v") >= 0) if conditional else None
                yield from kv.update_item(ctx, "t", "k", [Set("v", 1)],
                                          condition=cond)
                times.append(cloud.now - t0)
            times.sort()
            return times[len(times) // 2]
        return cloud.run_process(flow())

    regular = run_many(False)
    locked = run_many(True)
    assert 1.5 < locked - regular < 4.5


def test_stream_records_emitted_in_order(cloud, ctx):
    kv = cloud.kv()
    table = kv.create_table("t")
    records = []
    table.stream_listeners.append(records.append)

    def flow():
        yield from kv.put_item(ctx, "t", "a", {"v": 1})
        yield from kv.update_item(ctx, "t", "a", [Set("v", 2)])
        yield from kv.delete_item(ctx, "t", "a")

    cloud.run_process(flow())
    assert [r.sequence for r in records] == [1, 2, 3]
    assert records[0].old_image is None and records[0].new_image == {"v": 1}
    assert records[1].old_image == {"v": 1} and records[1].new_image == {"v": 2}
    assert records[2].new_image is None


def test_cross_region_read_penalty(cloud):
    kv = cloud.kv()
    kv.create_table("t")
    local = cloud.client_ctx()
    remote = cloud.client_ctx(region="eu-west-1")

    def timed(ctx_):
        def flow():
            t0 = cloud.now
            yield from kv.get_item(ctx_, "t", "k")
            return cloud.now - t0
        return cloud.run_process(flow())

    cloud.run_process(kv.put_item(local, "t", "k", {"v": 1}))
    near = min(timed(local) for _ in range(5))
    far = min(timed(remote) for _ in range(5))
    assert far > near + 100  # Figure 4b inter-region penalty


# ------------------------------------------------- update operands are copied
@pytest.mark.parametrize("action", [
    lambda operand: Set("a", operand),
    lambda operand: SetIfNotExists("a", operand),
    lambda operand: ListAppend("a", operand),  # appends the nested list [1]
], ids=["Set", "SetIfNotExists", "ListAppend-nested"])
def test_update_operand_does_not_alias_caller_object(cloud, ctx, action):
    kv = cloud.kv()
    kv.create_table("t")
    inner = [1]
    operand = [inner]

    def flow():
        yield from kv.update_item(ctx, "t", "k", [action(operand)])
        inner.append(99)  # the caller keeps mutating what it passed in
        operand.append(98)
        return (yield from kv.get_item(ctx, "t", "k"))

    assert cloud.run_process(flow()) == {"a": [[1]]}


# ------------------------------------------------------ image isolation
def _mutate(image):
    image["v"].append(99)
    image["extra"] = True


def _isolation_store(cloud, ctx):
    kv = cloud.kv()
    table = kv.create_table("t")
    cloud.run_process(kv.put_item(ctx, "t", "k", {"v": [1]}))
    return kv, table


def test_mutating_update_and_transact_results_does_not_reach_the_store(cloud, ctx):
    kv, _table = _isolation_store(cloud, ctx)

    def flow():
        _mutate((yield from kv.update_item(ctx, "t", "k", [Set("n", 1)])))
        images = yield from kv.transact_update(
            ctx, [("t", "k", [Set("n", 2)], None)])
        _mutate(images[0])
        return (yield from kv.get_item(ctx, "t", "k"))

    assert cloud.run_process(flow()) == {"v": [1], "n": 2}


def test_mutating_scan_result_does_not_reach_the_store(cloud, ctx):
    kv, _table = _isolation_store(cloud, ctx)

    def flow():
        _mutate((yield from kv.scan(ctx, "t"))["k"])
        return (yield from kv.get_item(ctx, "t", "k"))

    assert cloud.run_process(flow()) == {"v": [1]}


def test_mutating_stream_record_images_does_not_reach_the_store(cloud, ctx):
    kv, table = _isolation_store(cloud, ctx)
    records = []
    table.stream_listeners.append(records.append)

    def flow():
        yield from kv.update_item(ctx, "t", "k", [Set("n", 1)])
        _mutate(records[0].new_image)
        _mutate(records[0].old_image)
        return (yield from kv.get_item(ctx, "t", "k", consistent=True))

    assert cloud.run_process(flow()) == {"v": [1], "n": 1}
    assert records[0].new_image["extra"]  # the record keeps its own clone


def test_mutating_condition_failed_item_does_not_reach_the_store(cloud, ctx):
    kv, _table = _isolation_store(cloud, ctx)

    def flow():
        for attempt in (
            kv.put_item(ctx, "t", "k", {}, condition=Attr("v") == 0),
            kv.update_item(ctx, "t", "k", [Set("n", 1)],
                           condition=Attr("v") == 0),
            kv.transact_update(ctx, [("t", "k", [Set("n", 1)],
                                      Attr("v") == 0)]),
        ):
            try:
                yield from attempt
            except ConditionFailed as exc:
                _mutate(exc.item)
            else:
                raise AssertionError("condition should have failed")
        return (yield from kv.get_item(ctx, "t", "k"))

    assert cloud.run_process(flow()) == {"v": [1]}


def test_mutating_token_replay_result_does_not_reach_the_store(cloud, ctx):
    kv, _table = _isolation_store(cloud, ctx)

    def flow():
        yield from kv.update_item(ctx, "t", "k", [Set("n", 1)], token="u")
        _mutate((yield from kv.update_item(ctx, "t", "k", [Set("n", 1)],
                                           token="u")))
        op = [("t", "k", [Set("n", 2)], None)]
        yield from kv.transact_update(ctx, op, token="x")
        _mutate((yield from kv.transact_update(ctx, op, token="x"))[0])
        again = yield from kv.transact_update(ctx, op, token="x")
        return again[0], (yield from kv.get_item(ctx, "t", "k"))

    replayed, stored = cloud.run_process(flow())
    assert replayed == stored == {"v": [1], "n": 2}


def test_mutating_dicts_passed_to_put_and_batch_put_does_not_reach_the_store(cloud, ctx):
    kv, _table = _isolation_store(cloud, ctx)
    single = {"v": [1]}
    batch = {"b1": {"v": [1]}, "b2": {"v": [1]}}

    def flow():
        yield from kv.put_item(ctx, "t", "p", single)
        yield from kv.batch_put(ctx, "t", batch)
        _mutate(single)
        _mutate(batch["b1"])
        batch["b2"]["v"].clear()
        return (yield from kv.scan(ctx, "t"))

    assert cloud.run_process(flow()) == {
        key: {"v": [1]} for key in ("k", "p", "b1", "b2")}


def test_stored_size_tracks_a_full_walk_through_updates(cloud, ctx):
    from repro.cloud.expressions import item_size_bytes

    kv = cloud.kv()
    table = kv.create_table("t")

    def flow():
        yield from kv.update_item(ctx, "t", "k", [Set("lock.ts", 1.5),
                                                  ListAppend("q", ["a", "bc"])])
        yield from kv.transact_update(ctx, [
            ("t", "k", [Set("data", b"x" * 3000), Set("lock.owner", "me")], None),
            ("t", "other", [Add("n", 1)], None)])
        yield from kv.update_item(ctx, "t", "k", [Set("q", None), Add("n", 2)])

    cloud.run_process(flow())
    for key in ("k", "other"):
        rec = table._items[key]
        assert rec.size_bytes == item_size_bytes(rec.value)


# ------------------------------------------------ idempotence-token ledger
def test_token_replay_inside_window_then_ledger_stays_bounded(cloud, ctx):
    kv = cloud.kv()
    kv.create_table("t")
    window = kv.TOKEN_WINDOW_MS
    assert window == 600_000.0  # DynamoDB's 10-minute ClientRequestToken window

    def flow():
        first = yield from kv.update_item(ctx, "t", "k", [Add("n", 1)], token="tok")
        yield cloud.env.timeout(window / 2)
        replay = yield from kv.update_item(ctx, "t", "k", [Add("n", 1)], token="tok")
        assert first == replay == {"n": 1}  # recorded image, not re-applied
        started, writes, longest = cloud.now, 0, 0
        while cloud.now - started < 30 * 60_000:
            yield from kv.update_item(ctx, "t", "w", [Add("n", 1)],
                                      token=f"w{writes}")
            yield cloud.env.timeout(1_000.0)
            writes += 1
            longest = max(longest, len(kv._token_results)
                          + len(kv._token_previous))
        # past the window the same token is a new request
        late = yield from kv.update_item(ctx, "t", "k", [Add("n", 1)], token="tok")
        # ... also when the store sat idle: a late turnover keeps nothing
        yield cloud.env.timeout(2.5 * window)
        idle = yield from kv.update_item(ctx, "t", "k", [Add("n", 1)], token="tok")
        assert idle == {"n": 3}
        return writes, longest, late

    writes, longest, late = cloud.run_process(flow())
    assert writes > 1_500
    assert longest <= 2 * window / 1_000.0 + 2  # two generations, not all 30 min
    assert late == {"n": 2}


# ------------------------------------------------------- sanitizer leg
def test_sanitizer_catches_in_place_mutation_of_a_stored_image(cloud, ctx, monkeypatch):
    monkeypatch.setenv("FK_SANITIZE", "1")
    kv = cloud.kv()
    table = kv.create_table("t")
    cloud.run_process(kv.put_item(ctx, "t", "k", {"v": [1]}))
    assert cloud.run_process(kv.get_item(ctx, "t", "k")) == {"v": [1]}
    table.raw("k")["v"].append(2)  # breaks the image discipline
    with pytest.raises(SanitizerError, match="mutated in place"):
        cloud.run_process(kv.get_item(ctx, "t", "k"))
    with pytest.raises(SanitizerError, match="mutated in place"):
        cloud.run_process(kv.update_item(ctx, "t", "k", [Set("n", 1)]))


def test_sanitizer_catches_a_wrong_memoized_size(cloud, ctx, monkeypatch):
    monkeypatch.setenv("FK_SANITIZE", "1")
    kv = cloud.kv()
    table = kv.create_table("t")
    table._store("k", {"v": 1}, size_bytes=1)  # a lying caller
    with pytest.raises(SanitizerError, match="memoized size"):
        cloud.run_process(kv.get_item(ctx, "t", "k"))


def test_segmented_scan_remembers_each_key_crc_once(cloud, ctx):
    """A sweep costs one ``%`` per key: the crc32 is computed by the first
    segmented scan that needs it and removed with the key; selection and
    order are exactly ``scan_segment_of``'s."""
    from repro.cloud.kvstore import scan_segment_of

    kv = cloud.kv()
    table = kv.create_table("t")
    keys = [f"s{i}" for i in range(40)]

    def scan(segment=0, total=1):
        return list(cloud.run_process(kv.scan(ctx, "t", segment, total)))

    cloud.run_process(kv.batch_put(ctx, "t", {k: {"v": 1} for k in keys}))
    assert scan() == keys and table._key_crc == {}     # plain scan: no crcs
    for segment in range(4):
        assert scan(segment, 4) == [
            k for k in keys if scan_segment_of(k, 4) == segment]
    assert set(table._key_crc) == set(keys)
    assert sorted(sum((scan(s, 8) for s in range(8)), [])) == sorted(keys)
    cloud.run_process(kv.delete_item(ctx, "t", "s7"))
    assert "s7" not in table._key_crc
    assert "s7" not in scan(scan_segment_of("s7", 4), 4)


@pytest.mark.parametrize("total", [1, 4])
def test_scan_reads_the_keys_it_set_out_to_read(cloud, ctx, total):
    """Whole-table and segmented scans agree on in-flight changes: a key
    deleted before completion drops out, an update shows its newest image,
    and a key inserted meanwhile waits for the next scan."""
    from repro.cloud.kvstore import scan_segment_of

    kv = cloud.kv()
    kv.create_table("t")
    segment = scan_segment_of("s0", total)
    mine = [k for k in (f"s{i}" for i in range(40))
            if scan_segment_of(k, total) == segment]
    gone, changed, late = mine[1], mine[2], mine[-1]
    cloud.run_process(kv.batch_put(
        ctx, "t", {k: {"v": 1} for k in mine if k != late}))
    scan = cloud.env.process(kv.scan(ctx, "t", segment, total))
    cloud.env.step()                 # the request is sent: keys selected
    table = kv.table("t")
    table._store(gone, None)
    table._store(changed, {"v": 2})
    table._store(late, {"v": 1})
    cloud.run(until=scan)
    assert list(scan.value) == [k for k in mine if k not in (gone, late)]
    assert scan.value[changed] == {"v": 2}

