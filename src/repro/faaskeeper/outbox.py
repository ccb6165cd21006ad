"""Transactional-outbox event streaming with pluggable sinks.

Watch delivery ends at connected clients; production coordination
services additionally stream every committed change to *external*
consumers — change-data-capture pipelines, audit logs, cross-system
replication.  Bolting that on out-of-band (read the store, diff, emit)
is lossy: an event emitted before the commit can describe a change that
never happened, one emitted after can be lost with the emitter.  The
transactional-outbox pattern closes the gap, and here it needs no table
of its own — **the event record is the commit-log record**:

* **append** — the leader's one record per committed transaction
  (:meth:`SnapshotManager.append_log`: writes, txid, session, commit
  timestamp) is written in a conditional ``transact_update`` with the
  shard's log head: the state change and everything the publisher will
  say about it commit atomically, and the log-head condition that
  deduplicates redelivered leader batches deduplicates the events for free;

* **publish** — a scheduled publisher function is a *cursor* over that
  log (the snapshot fold and compaction are the other two): it reads the
  records of ``(outbox:published, floor]`` in txid order — the floor being
  ``min`` over shards of the log heads, below which every committed txid
  provably has its record, so order is gapless and per-path order follows
  from global order — and projects each onto one event per *node* write
  (parent metadata updates are an implementation detail, not a
  user-visible change).  Each record is delivered to every configured
  sink with exponential-backoff retry; a sink that still fails after
  :data:`MAX_ATTEMPTS` gets the event *dead-lettered* (durable list +
  in-memory mirror) and the drain moves on.  The durable
  ``outbox:published`` watermark advances only **after** a record's sinks
  are settled, so a publisher crash re-delivers — at-least-once, with
  duplicates deduplicated downstream by ``(txid, path)``.  The publisher
  never deletes: retention is log compaction, which the watermark pins;

* **sinks** — pluggable behind a small registry
  (:func:`register_sink` / :func:`make_sink`): :class:`InProcSink`
  (in-memory list — tests, recipes), :class:`FileSink` (JSON-lines CDC
  feed), :class:`WebhookSink` (HTTP POST per record via an injectable
  transport; :class:`FakeHttp` is the test double).  Every sink keeps an
  in-memory ``delivered`` mirror so the chaos audit can assert
  no-lost / no-duplicated-beyond-redelivery without trusting the sink's
  own side effects.

Everything is gated on ``outbox_enabled`` (default off): a default
deployment deploys no publisher and keeps its CI-gated write fingerprint
bit-for-bit.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..cloud.expressions import ListAppend
from .distributor import advance_watermark
from .layout import OUTBOX_DEAD_LETTER_KEY, OUTBOX_PUBLISHED_KEY, SYSTEM_STATE

__all__ = ["OutboxStage", "Sink", "InProcSink", "FileSink", "WebhookSink",
           "FakeHttp", "register_sink", "make_sink", "SINK_SCHEMES",
           "MAX_ATTEMPTS", "RETRY_BASE_MS"]

#: Per-sink delivery attempts before a record is dead-lettered.
MAX_ATTEMPTS = 3
#: Base of the publisher's exponential retry backoff: attempt ``n`` waits
#: ``RETRY_BASE_MS * 2**(n-1)`` virtual milliseconds.
RETRY_BASE_MS = 50.0


# --------------------------------------------------------------------------
# Sinks
# --------------------------------------------------------------------------

class Sink:
    """One event consumer.  Subclasses implement :meth:`_emit`; the base
    class keeps the in-memory ``delivered`` mirror every audit relies on
    (appended only after ``_emit`` succeeded, so the mirror never claims
    a delivery the sink rejected)."""

    kind = "sink"

    def __init__(self) -> None:
        #: Audit mirror: every successfully delivered event dict, in
        #: delivery order (duplicates included — at-least-once).
        self.delivered: List[Dict[str, Any]] = []
        #: Metrics/registry label; the stage uniquifies duplicates.
        self.label = self.kind

    def deliver(self, fctx, events: List[Dict[str, Any]]) -> Generator:
        """Deliver one record's events (raises on failure; the publisher
        owns retry and dead-letter policy)."""
        yield from self._emit(fctx, events)
        self.delivered.extend(dict(ev) for ev in events)
        return None

    def _emit(self, fctx, events: List[Dict[str, Any]]) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover

    # ------------------------------------------------------------ audit
    def delivered_txids(self) -> List[int]:
        return [ev["txid"] for ev in self.delivered]


# Constant after import: populated only by the @register_sink decorators
# below, identical in every sandbox, never mutated at runtime — so a
# cold_restart cannot observe divergent state through it.
SINK_SCHEMES: Dict[str, Callable[..., Sink]] = {}  # fklint: disable=FK004


def register_sink(scheme: str):
    """Register a sink class under a URI-ish scheme (``inproc``,
    ``file``, ``webhook``, ...); :func:`make_sink` resolves specs
    through this table, so deployments can plug in new sink kinds
    without touching the publisher."""
    def wrap(cls):
        cls.kind = scheme
        SINK_SCHEMES[scheme] = cls
        return cls
    return wrap


def make_sink(spec: Any) -> Sink:
    """Build a sink from a config spec: a ready :class:`Sink` instance,
    a ``(scheme, kwargs)`` pair, or a string ``"scheme"`` /
    ``"scheme:argument"`` (the argument is the file path or URL)."""
    if isinstance(spec, Sink):
        return spec
    if isinstance(spec, tuple) and len(spec) == 2:
        scheme, kwargs = spec
        args = ()
    elif isinstance(spec, str):
        scheme, _, arg = spec.partition(":")
        args, kwargs = (arg,) if arg else (), {}
    else:
        raise ValueError(f"cannot build a sink from {spec!r}")
    if scheme not in SINK_SCHEMES:
        raise ValueError(f"unknown sink scheme {scheme!r}")
    return SINK_SCHEMES[scheme](*args, **dict(kwargs))


@register_sink("inproc")
class InProcSink(Sink):
    """In-process consumer: events land on :attr:`delivered` (and an
    optional callback) — the zero-infrastructure sink tests and
    same-process consumers use."""

    def __init__(self, callback: Optional[Callable[[Dict[str, Any]], None]] = None) -> None:
        super().__init__()
        self.callback = callback

    def _emit(self, fctx, events: List[Dict[str, Any]]) -> Generator:
        if self.callback is not None:
            for ev in events:
                self.callback(dict(ev))
        return None
        yield  # pragma: no cover


@register_sink("file")
class FileSink(Sink):
    """JSON-lines change-data-capture feed: one line per event, appended
    per delivered record (the ``examples/change_data_capture.py`` sink)."""

    def __init__(self, path: str) -> None:
        super().__init__()
        if not path:
            raise ValueError("file sink needs a path ('file:<path>')")
        self.path = path

    def _emit(self, fctx, events: List[Dict[str, Any]]) -> Generator:
        # Serialization cost scales with the event batch (pure compute —
        # the file itself is outside the simulated cloud).
        yield fctx.compute(base_ms=0.1, payload_kb=0.1 * len(events))
        with open(self.path, "a", encoding="utf-8") as fh:
            for ev in events:
                fh.write(json.dumps(ev, sort_keys=True) + "\n")
        return None


@register_sink("webhook")
class WebhookSink(Sink):
    """HTTP POST per record.  The transport is injected
    (``transport(url, payload) -> status code``; raise or return >= 300
    to fail the delivery) — the simulation never opens sockets, and the
    :class:`FakeHttp` double drives the retry/dead-letter tests."""

    def __init__(self, url: str,
                 transport: Optional[Callable[[str, Dict[str, Any]], int]] = None) -> None:
        super().__init__()
        if not url:
            raise ValueError("webhook sink needs a URL ('webhook:<url>')")
        self.url = url
        self.transport = transport

    def _emit(self, fctx, events: List[Dict[str, Any]]) -> Generator:
        yield fctx.compute(base_ms=0.2, payload_kb=0.1 * len(events))
        if self.transport is None:
            raise RuntimeError(
                f"webhook sink {self.url}: no HTTP transport configured")
        status = self.transport(self.url, {"events": [dict(e) for e in events]})
        if status >= 300:
            raise RuntimeError(f"webhook sink {self.url}: HTTP {status}")
        return None


class FakeHttp:
    """Programmable fake HTTP transport for :class:`WebhookSink`:
    fails the first ``fail_times`` calls (with ``status``), then
    succeeds; records every request."""

    def __init__(self, fail_times: int = 0, status: int = 503) -> None:
        self.fail_times = fail_times
        self.status = status
        self.requests: List[Tuple[str, Dict[str, Any]]] = []

    def __call__(self, url: str, payload: Dict[str, Any]) -> int:
        self.requests.append((url, payload))
        if self.fail_times > 0:
            self.fail_times -= 1
            return self.status
        return 200


# --------------------------------------------------------------------------
# Publisher
# --------------------------------------------------------------------------

class OutboxStage:
    """The outbox of one deployment (``service.outbox``; None unless
    ``outbox_enabled``): its sinks and the ``fk-outbox`` publisher function.

    The publisher is stateless by design: progress (the published
    watermark), the input (commit-log records) and the failure record
    (dead-letter list) are all durable, so a crashed drain resumes from
    storage — the property the ``outbox_*`` chaos points exercise.
    """

    def __init__(self, service) -> None:
        self.service = service
        config = service.config

        # Sinks, with uniquified metric labels (two file sinks become
        # ``file`` and ``file-2``).
        self.sinks: List[Tuple[str, Sink]] = []
        seen: Dict[str, int] = {}
        for spec in config.outbox_sinks:
            sink = make_sink(spec)
            n = seen[sink.kind] = seen.get(sink.kind, 0) + 1
            sink.label = sink.kind if n == 1 else f"{sink.kind}-{n}"
            self.sinks.append((sink.label, sink))

        #: In-memory mirror of the durable dead-letter list.
        self.dead_letters: List[Dict[str, Any]] = []

        registry = service.metrics
        self.metrics = {
            "drains": registry.counter(
                "fk_outbox_drains_total", "Publisher drain passes"),
            "published": registry.counter(
                "fk_outbox_events_published_total",
                "Events delivered per sink (duplicates counted)", ("sink",)),
            "retries": registry.counter(
                "fk_outbox_retries_total",
                "Failed sink delivery attempts that were retried", ("sink",)),
            "dead_letters": registry.counter(
                "fk_outbox_dead_letters_total",
                "Records dead-lettered per sink", ("sink",)),
            "published_txid": registry.gauge(
                "fk_outbox_published_txid",
                "Durable publish watermark (newest fully published txid)"),
            "backlog": registry.gauge(
                "fk_outbox_backlog",
                "Txids between the cursor and the floor after the last drain"),
            "lag": registry.histogram(
                "fk_outbox_publish_lag_ms",
                "Commit-to-sink publish lag per record (ms)"),
        }

        self.fn = service._deploy_stage(
            "fk-outbox", "outbox", self,
            period_ms=config.outbox_publish_ms).fn

    # ------------------------------------------------------------ handler
    def handler(self, fctx, payload: Any) -> Generator:
        """One drain pass: move the cursor up to ``outbox_batch`` txids
        towards the floor, publishing every record on the way."""
        env = fctx.env
        store = self.service.system_store
        log = self.service.snapshots
        metrics = self.metrics
        fctx.crash_point("outbox_entry")
        metrics["drains"].inc()

        t0 = env.now
        mark_item = yield from store.get_item(
            fctx.ctx, SYSTEM_STATE, OUTBOX_PUBLISHED_KEY)
        mark = int((mark_item or {}).get("txid", 0))
        floor, _top = yield from log.bounds(fctx.ctx)
        fctx.record("outbox_scan", env.now - t0)
        stop = min(floor, mark + self.service.config.outbox_batch)
        cursor = mark
        published = 0

        def publish(record: Dict[str, Any]) -> Generator:
            nonlocal cursor, published
            events = [[path, op] for path, _image, is_parent, op
                      in record["writes"] if not is_parent]
            if not events:
                return None  # pure metadata: nothing user-visible happened
            fctx.crash_point("outbox_mid_drain")
            yield from self._publish_record(fctx, record, events)
            fctx.crash_point("outbox_after_sink")
            # The watermark advances only after every sink settled this
            # record: a crash above re-delivers it (at-least-once).
            cursor = record["txid"]
            yield from self._advance(fctx, cursor)
            metrics["lag"].observe(env.now - record["ts"])
            published += 1
            return None

        yield from log.read_suffix(fctx.ctx, mark, stop, publish)
        if cursor < stop:
            # The tail of the range held no event (burned txids, pure
            # metadata records): step over it so the cursor — and the
            # compaction it pins — does not wait for the next event.
            yield from self._advance(fctx, stop)
        metrics["backlog"].set(floor - stop)
        return {"published": published, "floor": floor,
                "backlog": floor - stop}

    def _advance(self, fctx, txid: int) -> Generator:
        yield from advance_watermark(self.service.system_store, fctx.ctx,
                                     OUTBOX_PUBLISHED_KEY, "txid", txid)
        self.metrics["published_txid"].set(txid)
        return None

    def _publish_record(self, fctx, rec: Dict[str, Any],
                        pairs: List[List[str]]) -> Generator:
        """Deliver one record's events to every sink: exponential-backoff
        retry, dead-letter on a sink that keeps failing."""
        env = fctx.env
        metrics = self.metrics
        events = [
            {"txid": rec["txid"], "path": path, "op": op,
             "session": rec["session"], "ts": rec["ts"],
             "shard": rec["shard"]}
            for path, op in pairs
        ]
        t0 = env.now
        for label, sink in self.sinks:
            for attempt in range(1, MAX_ATTEMPTS + 1):
                try:
                    yield from sink.deliver(fctx, events)
                except Exception as exc:
                    error = exc
                    metrics["retries"].labels(sink=label).inc()
                    if attempt < MAX_ATTEMPTS:
                        yield env.timeout(RETRY_BASE_MS * 2 ** (attempt - 1))
                else:
                    metrics["published"].labels(sink=label).inc(len(events))
                    break
            else:
                yield from self._dead_letter(fctx, label, rec["txid"], pairs,
                                             error)
        fctx.record("outbox_publish", env.now - t0)
        return None

    def _dead_letter(self, fctx, sink_label: str, txid: int,
                     pairs: List[List[str]], error: Exception) -> Generator:
        """A sink exhausted its retry budget: park the record durably so
        no event is silently dropped (the operator replays from here)."""
        entry = {"txid": txid, "sink": sink_label,
                 "events": [list(pair) for pair in pairs],
                 "error": repr(error)}
        yield from self.service.system_store.update_item(
            fctx.ctx, SYSTEM_STATE, OUTBOX_DEAD_LETTER_KEY,
            updates=[ListAppend("items", [entry])],
            payload_kb=0.2)
        self.dead_letters.append(entry)
        self.metrics["dead_letters"].labels(sink=sink_label).inc()
        return None

    # ------------------------------------------------------------ helpers
    def drain(self) -> Dict[str, Any]:
        """Synchronous manual drain (tests, examples): one publisher
        invocation, run to completion."""
        done = self.service.cloud.runtime.invoke_direct(self.fn, None)
        return self.service.cloud.env.run(until=done)

    def sink(self, label_or_index: Any = 0) -> Sink:
        """Look up a configured sink by metric label or position."""
        if isinstance(label_or_index, int):
            return self.sinks[label_or_index][1]
        for label, sink in self.sinks:
            if label == label_or_index:
                return sink
        raise KeyError(label_or_index)

    def stats(self) -> Dict[str, float]:
        return {
            "drains": self.metrics["drains"].value,
            "published": sum(c.value for _lv, c in
                             self.metrics["published"].items()),
            "retries": sum(c.value for _lv, c in
                           self.metrics["retries"].items()),
            "dead_letters": float(len(self.dead_letters)),
            "published_txid": self.metrics["published_txid"].value,
        }
