"""Transactional-outbox event streaming: publish lag and zero-overhead gate.

The outbox decouples event publishing from the write path: the leader
does no extra work at all — the commit-log record it already writes *is*
the event record — and a scheduled publisher reads the log at its own
cursor and streams committed events to the configured sinks.  Three
properties matter:

* **publish lag** — commit-to-sink delay per event (the
  ``fk_outbox_publish_lag_ms`` histogram), dominated by the publisher
  period, not by the write rate: the drain is batched, so p50/p99 should
  stay flat as the rate grows.

* **dollars per event** — what streaming adds to a deployment that
  already keeps a commit log: (outbox-on dollars − log-only dollars) /
  events delivered, same seed and workload.  With a separate outbox table
  (one more transaction leg, a table scan per drain, a delete per record)
  this was $5.87e-6 at 10 writes/s; a cursor over the log must stay below.

* **zero off-cost** — with the outbox off (the default) the write path
  must reproduce the pre-PR fingerprint bit-for-bit: the subsystem must
  never tax a deployment that doesn't use it.

The bench drives a paced ``set_data`` workload at increasing write rates
against an outbox-on deployment (scheduled publisher, in-proc sink),
reports lag p50/p99 per rate, audits delivery (nothing lost, nothing
dead-lettered, per-path txid order) and emits machine-readable
``BENCH_outbox.json`` (a CI artifact for the perf trajectory).

``FK_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs;
``FK_BENCH_JSON`` overrides the JSON output path.
"""

import json
import os

from bench_distributor_latency import WRITE_BASELINE_DEFAULT, write_fingerprint
from repro.analysis import render_table
from repro.cloud import Cloud
from repro.faaskeeper import FaaSKeeperConfig, FaaSKeeperService
from repro.faaskeeper.chaos import verify_outbox_delivery

SMOKE = os.environ.get("FK_BENCH_SMOKE", "") not in ("", "0")
JSON_PATH = os.environ.get("FK_BENCH_JSON", "BENCH_outbox.json")
RATES_PER_S = (2, 10, 50)
WRITES = 30 if SMOKE else 200
PUBLISH_MS = 1_000.0
SEED = 2024
#: Outbox surcharge per event with the separate ``fk-system-outbox`` table
#: (the parent of the PR that deleted it), 10 writes/s, 200 writes, 256 B.
TABLE_USD_PER_EVENT = 5.87e-6


def _drive(rate_per_s, outbox):
    """The paced workload against a commit-log deployment, outbox on or
    off; returns the deployment, the acked txids and its metered dollars."""
    cloud = Cloud.aws(seed=SEED)
    config = FaaSKeeperConfig(
        commit_log_enabled=True, outbox_enabled=outbox,
        outbox_publish_ms=PUBLISH_MS, outbox_batch=100)
    service = FaaSKeeperService.deploy(cloud, config)
    client = service.connect()
    client.create("/bench", b"")
    interval_ms = 1_000.0 / rate_per_s
    futures = []
    for i in range(WRITES):
        futures.append(client.set_data_async("/bench", b"x" * 256))
        cloud.run(until=cloud.now + interval_ms)
    acked = [f.wait().txid for f in futures]
    cloud.run(until=cloud.now + 30_000)  # scheduled drains catch up
    if outbox:
        service.outbox.drain()           # settle any sub-period tail
    return service, acked, sum(cloud.meter.by_service().values())


def _measure(rate_per_s):
    _log_only, _acked, log_only_usd = _drive(rate_per_s, outbox=False)
    service, acked, usd = _drive(rate_per_s, outbox=True)
    stats = service.outbox.stats()
    appended = service.metrics.get("fk_log_appends_total").value
    sink = service.outbox.sink(0)
    lag = service.metrics.get("fk_outbox_publish_lag_ms")
    violations = verify_outbox_delivery(service, acked)
    assert violations == [], violations
    # Registry consistency: every appended record was delivered (the
    # single sink saw each committed event at least once), none parked.
    assert stats["dead_letters"] == 0
    assert len(set(sink.delivered_txids())) == appended
    assert stats["published_txid"] >= max(acked)
    return {
        "rate_per_s": rate_per_s,
        "events": len(sink.delivered),
        "appended": appended,
        "drains": stats["drains"],
        "lag_p50_ms": round(lag.quantile(0.50), 3),
        "lag_p99_ms": round(lag.quantile(0.99), 3),
        "usd_per_event": (usd - log_only_usd) / len(sink.delivered),
    }


def run():
    out = [_measure(rate) for rate in RATES_PER_S]
    print()
    print(render_table(
        ["rate (w/s)", "events", "drains", "lag p50 (ms)", "lag p99 (ms)",
         "$/event over log-only"],
        [[r["rate_per_s"], r["events"], r["drains"],
          f"{r['lag_p50_ms']:.0f}", f"{r['lag_p99_ms']:.0f}",
          f"{r['usd_per_event']:.3g}"]
         for r in out],
        title=f"Outbox publish lag, period={PUBLISH_MS:.0f}ms, "
              f"{WRITES} writes"))
    payload = {
        "bench": "bench_outbox",
        "writes": WRITES,
        "publish_period_ms": PUBLISH_MS,
        "series": {f"rate{r['rate_per_s']}": r for r in out},
    }
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {JSON_PATH}")
    return out


def test_outbox_publish_lag(benchmark):
    out = benchmark.pedantic(run, rounds=1, iterations=1)
    for row in out:
        # Lag is period-dominated: even at the highest rate the batched
        # drain keeps p99 within a few publisher periods.
        assert 0 < row["lag_p50_ms"] <= 2 * PUBLISH_MS, row
        assert row["lag_p99_ms"] <= 5 * PUBLISH_MS, row
    # One record, not two: streaming costs less than the table it replaced
    # (2.11e-6 on the full workload, 3.01e-6 on the smoke one, whose fixed
    # per-drain cost is spread over fewer events).
    ten = next(r for r in out if r["rate_per_s"] == 10)
    assert 0 < ten["usd_per_event"] < TABLE_USD_PER_EVENT, ten


def test_outbox_off_overhead_is_zero():
    """The acceptance gate: an outbox-off deployment reproduces the
    pre-PR write fingerprint bit-for-bit — virtual per-write timings,
    end time and metered cost.  (``outbox_enabled=False`` also pins the
    FK_FORCE_OUTBOX CI leg back to the default pipeline.)"""
    assert write_fingerprint(outbox_enabled=False) == WRITE_BASELINE_DEFAULT


if __name__ == "__main__":
    run()
