"""The metrics registry (metrics.py) and its service-level wiring.

Unit coverage for the Prometheus data model (Counter / Gauge / Histogram,
labels, callback children, snapshot + text exposition) plus the
deployment-side guarantees: ``metrics_snapshot()`` covers every pipeline
stage, the old ad-hoc counter attributes survive as registry-backed
properties, and ``cost_breakdown()`` returns exactly what the cost meter
says — the registry is a view, not a second bookkeeper.
"""

import json

import pytest

from repro.faaskeeper.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .conftest import make_service


# --------------------------------------------------------------------------
# Counter / Gauge / Histogram semantics
# --------------------------------------------------------------------------

def test_counter_monotone_increments():
    c = MetricsRegistry().counter("c_total", "help")
    assert c.value == 0.0
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_moves_both_ways_and_supports_callbacks():
    g = MetricsRegistry().gauge("g", "help")
    g.set(10)
    g.inc(5)
    g.dec(3)
    assert g.value == 12.0
    box = {"n": 7}
    g.set_function(lambda: box["n"])
    assert g.value == 7.0
    box["n"] = 9  # callback children are sampled at read time
    assert g.value == 9.0


def test_histogram_buckets_sum_count_and_quantiles():
    h = MetricsRegistry().histogram("h_ms", "help", buckets=(10.0, 100.0))
    for v in (1, 5, 50, 500):
        h.observe(v)
    snap = h._solo().histogram_snapshot()
    assert snap["count"] == 4 and snap["sum"] == 556.0
    # cumulative counts, +Inf catches the overflow
    assert snap["buckets"] == {"10": 2, "100": 3, "+Inf": 4}
    assert 0 < h.quantile(0.5) <= 10.0
    assert h.quantile(1.0) == 100.0  # clamped to the top finite bucket
    assert MetricsRegistry().histogram("empty", "").quantile(0.99) == 0.0


def test_observe_files_a_value_where_the_linear_scan_would():
    """Reference: the first bucket whose bound is >= the value, else +Inf."""
    buckets = (1.0, 2.5, 10.0, 100.0)
    h = Histogram("h", buckets=buckets)
    values = (-1.0, 0.0, 0.999, 1.0, 1.0001, 2.5, 2.5000001, 9.0, 10, 10.5,
              100.0, 100.1, 1e9)
    want = [0] * (len(buckets) + 1)
    for value in values:
        h.observe(value)
        want[next((i for i, bound in enumerate(buckets) if value <= bound),
                  len(buckets))] += 1
    child = h._solo()
    assert child._bucket_counts == want
    assert (child._count, child._sum) == (len(values), sum(values))


def test_histogram_buckets_are_sorted_and_required():
    h = Histogram("h", buckets=(100.0, 1.0, 10.0))
    assert h._buckets == (1.0, 10.0, 100.0)
    with pytest.raises(ValueError):
        Histogram("h2", buckets=())


# --------------------------------------------------------------------------
# Labels
# --------------------------------------------------------------------------

def test_labels_positional_and_keyword_reach_the_same_child():
    c = MetricsRegistry().counter("c_total", "", ("region", "shard"))
    c.labels("us-east-1", "0").inc()
    c.labels(region="us-east-1", shard="0").inc()
    c.labels("eu-west-1", "0").inc(5)
    assert c.labels("us-east-1", "0").value == 2.0
    assert dict(c.items()) != {}
    assert [lv for lv, _ in c.items()] == \
        [("eu-west-1", "0"), ("us-east-1", "0")]  # items() sorts


def test_label_arity_and_name_mismatches_raise():
    c = MetricsRegistry().counter("c_total", "", ("region",))
    with pytest.raises(ValueError):
        c.labels()                       # missing value
    with pytest.raises(ValueError):
        c.labels("a", "b")               # too many
    with pytest.raises(ValueError):
        c.labels(zone="a")               # wrong name
    with pytest.raises(ValueError):
        c.labels("a", region="a")        # mixed styles
    with pytest.raises(ValueError):
        c.inc()  # labelled metric has no solo child


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

def test_registration_is_idempotent_but_shape_changes_raise():
    r = MetricsRegistry()
    c = r.counter("x_total", "help", ("a",))
    assert r.counter("x_total", "other help", ("a",)) is c
    assert "x_total" in r and r.get("x_total") is c
    with pytest.raises(ValueError):
        r.gauge("x_total")                       # different type
    with pytest.raises(ValueError):
        r.counter("x_total", "", ("a", "b"))     # different labels
    h = r.histogram("h_ms", "", buckets=(1.0, 2.0))
    assert r.histogram("h_ms", "", buckets=(2.0, 1.0)) is h  # sorted-equal
    with pytest.raises(ValueError):
        r.histogram("h_ms", "", buckets=(1.0, 3.0))


def test_snapshot_is_stable_and_json_able():
    r = MetricsRegistry()
    r.counter("b_total").inc(2)
    r.gauge("a", "", ("k",)).labels(k="v").set(1.5)
    r.histogram("h_ms").observe(3.0)
    first = r.snapshot()
    assert json.loads(json.dumps(first)) == first
    assert first == r.snapshot()  # reading is side-effect free
    assert list(first) == sorted(first)  # stable name order
    assert first["b_total"] == {"type": "counter", "help": "",
                                "values": {"": 2.0}}
    assert first["a"]["values"] == {'k="v"': 1.5}
    assert first["h_ms"]["values"][""]["count"] == 1


def test_expose_renders_prometheus_text():
    r = MetricsRegistry()
    r.counter("req_total", "requests", ("code",)).labels(code="200").inc(3)
    r.histogram("lat_ms", "latency", buckets=(10.0,)).observe(4.0)
    text = r.expose()
    assert "# HELP req_total requests" in text
    assert "# TYPE req_total counter" in text
    assert 'req_total{code="200"} 3' in text
    assert 'lat_ms_bucket{le="10"} 1' in text
    assert 'lat_ms_bucket{le="+Inf"} 1' in text
    assert "lat_ms_sum 4" in text and "lat_ms_count 1" in text
    assert text.endswith("\n")


# --------------------------------------------------------------------------
# Service wiring
# --------------------------------------------------------------------------

def test_metrics_snapshot_covers_every_stage():
    cloud, service = make_service(
        seed=900, commit_log_enabled=True, outbox_enabled=True,
        distributor_enabled=True, regions=["us-east-1", "eu-west-1"],
        client_cache_entries=8)
    c = service.connect()
    c.create("/a", b"x")
    c.get_data("/a")
    cloud.run(until=cloud.now + 10_000)
    snap = service.metrics_snapshot()
    for name in ("fk_stage_segment_ms", "fk_fn_invocations",
                 "fk_fn_cold_starts", "fk_fn_failures", "fk_sessions_active",
                 "fk_client_cache", "fk_cost_dollars", "fk_log_appends_total",
                 "fk_snapshots_taken_total", "fk_outbox_published_txid",
                 "fk_outbox_drains_total", "fk_distributor_batches_total",
                 "fk_watch_fanouts_total", "fk_heartbeat_sweeps_total",
                 "fk_gc_collected_total"):
        assert name in snap, name
    assert json.loads(json.dumps(snap)) == snap
    # the per-stage timing histogram actually saw the pipeline run
    segs = snap["fk_stage_segment_ms"]["values"]
    assert any('fn="fk-follower"' in key for key in segs)
    assert any('fn="fk-leader' in key for key in segs)
    text = service.metrics_text()
    assert "fk_fn_invocations" in text and "fk_cost_dollars" in text


def test_segment_probes_reach_the_child_their_labels_name():
    """``on_segment`` binds each (fn, segment) child once; every probe a
    function recorded must be in exactly that child, in recording order."""
    cloud, service = make_service(seed=901)
    c = service.connect()
    c.create("/a", b"x")
    for i in range(5):
        c.set_data("/a", bytes([i]) * 2048)
    cloud.run(until=cloud.now + 1_000)
    segments = service.metrics.get("fk_stage_segment_ms")
    recorded = 0
    for fn in cloud.runtime.functions.values():
        for segment, samples in fn.segments.items():
            child = segments.labels(fn=fn.spec.name, segment=segment)
            assert (child._count, child._sum) == (len(samples), sum(samples))
            recorded += len(samples)
    assert recorded >= 6 * 7  # lock/push/commit + the leader's four, per write
    assert sum(child._count for _labels, child in segments.items()) == recorded


def test_cost_breakdown_matches_the_cost_meter():
    """``cost_breakdown()`` is a view of the cost meter, not a second
    bookkeeper: the storage/queue categories are read off the meter's
    service labels, every function category is the sum over the deployed
    stages of that kind (``service.stages``), the historical keys keep
    their order with ``gc``/``snapshot``/``outbox`` after them — and the
    non-overlapping categories add up to the meter's total (the
    four-deployment version of that contract lives in test_stages.py)."""
    cloud, service = make_service(seed=902, user_store="hybrid")
    c = service.connect()
    for i in range(5):
        c.create(f"/n{i}", b"x" * 64)
    c.get_data("/n0")
    cloud.run(until=cloud.now + 10_000)
    got = service.cost_breakdown()
    assert list(got) == ["client_cache_hits", "client_cache_misses",
                         "queue", "system_store", "user_store", "s3",
                         "dynamodb", "follower", "leader", "distributor",
                         "watch", "heartbeat", "gc", "snapshot", "outbox"]
    by = service.cloud.meter.by_service()
    expected = {
        "client_cache_hits": 0.0,
        "client_cache_misses": 0.0,
        "queue": sum(v for k, v in by.items() if k.startswith("sqs")),
        "system_store": by.get("dynamodb:system", 0.0),
        "user_store": by.get("dynamodb:user", 0.0) + by.get("s3", 0.0),
        "s3": by.get("s3", 0.0),
        "dynamodb": by.get("dynamodb:system", 0.0)
        + by.get("dynamodb:user", 0.0),
        "follower": by.get("fn:fk-follower", 0.0),
        "leader": by.get("fn:fk-leader", 0.0),
        "distributor": 0.0,
        "watch": by.get("fn:fk-watch", 0.0),
        "heartbeat": by.get("fn:fk-heartbeat", 0.0),
        "gc": by.get("fn:fk-gc", 0.0),
        "snapshot": by.get("fn:fk-snapshot", 0.0),
        "outbox": by.get("fn:fk-outbox", 0.0),  # (the FK_FORCE_OUTBOX leg)
    }
    assert got == expected
    assert got["queue"] > 0 and got["follower"] > 0  # non-vacuous
    overlapping = {"client_cache_hits", "client_cache_misses", "s3",
                   "dynamodb"}
    assert sum(v for k, v in got.items() if k not in overlapping) == \
        pytest.approx(cloud.meter.total, abs=1e-12)


def test_metrics_do_not_perturb_the_simulation():
    """Reading the registry mid-run must not change the deterministic
    trace: two identically seeded runs agree bit-for-bit even when one
    of them snapshots and exposes constantly."""
    def run(observe):
        cloud, service = make_service(seed=903)
        c = service.connect()
        for i in range(4):
            c.create(f"/n{i}", b"d")
            if observe:
                service.metrics_snapshot()
                service.metrics_text()
                service.cost_breakdown()
        cloud.run(until=cloud.now + 5_000)
        return cloud.now, service.cloud.meter.total, \
            service.system_store.table("fk-system-nodes").raw("/n3")
    assert run(observe=False) == run(observe=True)


def test_default_buckets_are_finite_and_sorted():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
    assert all(b > 0 for b in DEFAULT_BUCKETS)
    assert isinstance(Counter("c"), Counter)
    assert isinstance(Gauge("g"), Gauge)
