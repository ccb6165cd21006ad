"""Transactional-outbox event streaming to in-process subscribers.

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

* **publish** — the publisher, which the leader wakes through its FIFO
  queue after each batch it logs, is a *cursor* over that log (the
  snapshot fold and compaction are the other two): a pass reads the
  records of ``(outbox:published, floor]`` in txid order — the floor
  (:func:`~repro.faaskeeper.snapshot.log_bounds`) is where every
  committed txid provably has its record, so order is gapless and
  per-path order follows from global order — and projects each onto one
  event per *node* write (parent metadata updates are an implementation
  detail, not a user-visible change).  Each record is delivered to every
  sink with exponential-backoff retry; a sink that still fails after
  :data:`MAX_ATTEMPTS` gets the event *dead-lettered* (durable list +
  in-memory mirror) and the drain moves on.  The durable
  ``outbox:published`` watermark advances only **after** a record's sinks
  are settled, so a crashed pass, retried by its queue, re-delivers —
  at-least-once, deduplicated downstream by ``(txid, path)``.  The
  publisher never deletes: retention is log compaction, which the
  watermark pins;

* **sinks** — a deployment starts with one callback-less :class:`Sink`
  labelled ``inproc``; :meth:`OutboxStage.subscribe` adds one per
  consumer callback (``inproc-2``, ``inproc-3``, ...) — a JSON-lines CDC
  feed, an HTTP forwarder or a test's recorder is a callback.  Every sink
  keeps an in-memory ``delivered`` mirror so the chaos audit can assert
  no-lost / no-duplicated-beyond-redelivery without trusting the
  consumer's own side effects.

Everything is gated on ``outbox_enabled`` (default off): a default
deployment deploys no publisher and keeps its CI-gated write fingerprint
bit-for-bit.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional

from ..cloud.expressions import ListAppend
from .distributor import advance_watermark
from .layout import OUTBOX_DEAD_LETTER_KEY, OUTBOX_PUBLISHED_KEY, SYSTEM_STATE

__all__ = ["OutboxStage", "Sink", "MAX_ATTEMPTS", "PASS_LIMIT",
           "RETRY_BASE_MS"]

#: Most txids one publisher pass moves its cursor by; a pass that stops
#: short of the floor re-sends itself one trigger.
PASS_LIMIT = 100

#: Per-sink delivery attempts before a record is dead-lettered.
MAX_ATTEMPTS = 3
#: Base of the publisher's exponential retry backoff: attempt ``n`` waits
#: ``RETRY_BASE_MS * 2**(n-1)`` virtual milliseconds.
RETRY_BASE_MS = 50.0


class Sink:
    """One event consumer: ``callback`` (if any) sees every event, and the
    in-memory ``delivered`` mirror every audit relies on records it
    (appended only after the callback returned, so the mirror never
    claims a delivery the consumer rejected)."""

    def __init__(self, label: str,
                 callback: Optional[Callable[[Dict[str, Any]], None]] = None
                 ) -> None:
        #: Metrics and dead-letter label.
        self.label = label
        self.callback = callback
        #: Audit mirror: every successfully delivered event dict, in
        #: delivery order (duplicates included — at-least-once).
        self.delivered: List[Dict[str, Any]] = []

    def deliver(self, events: List[Dict[str, Any]]) -> None:
        """Deliver one record's events (raises on failure; the publisher
        owns retry and dead-letter policy)."""
        if self.callback is not None:
            for ev in events:
                self.callback(dict(ev))
        self.delivered.extend(dict(ev) for ev in events)

    def delivered_txids(self) -> List[int]:
        return [ev["txid"] for ev in self.delivered]


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
        self.sinks: List[Sink] = [Sink("inproc")]

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

        stage = service._deploy_stage("fk-outbox", "outbox", self,
                                      queue="fk-outbox-q")
        self.fn, self.queue = stage.fn, stage.queue

    # ------------------------------------------------------------ handler
    def handler(self, fctx, payload: Any) -> Generator:
        """One drain pass: move the cursor up to :data:`PASS_LIMIT` txids
        towards the floor, publishing every record on the way."""
        env = fctx.env
        store = self.service.system_store
        log = self.service.snapshots
        metrics = self.metrics
        metrics["drains"].inc()

        t0 = env.now
        mark_item = yield from store.get_item(
            fctx.ctx, SYSTEM_STATE, OUTBOX_PUBLISHED_KEY)
        mark = int((mark_item or {}).get("txid", 0))
        floor, _top = yield from log.bounds(fctx.ctx)
        fctx.record("outbox_scan", env.now - t0)
        stop = min(floor, mark + PASS_LIMIT)
        cursor = mark
        published = 0

        def publish(record: Dict[str, Any]) -> Generator:
            nonlocal cursor, published
            events = [[path, op] for path, _image, is_parent, op
                      in record["writes"] if not is_parent]
            if not events:
                return None  # pure metadata: nothing user-visible happened
            yield from self._publish_record(fctx, record, events)
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
        if stop < floor:
            # Stopped short: no further write may come to wake the rest.
            yield from self.queue.send(fctx.ctx, {"resume": stop})
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
        for sink in self.sinks:
            for attempt in range(1, MAX_ATTEMPTS + 1):
                try:
                    sink.deliver(events)
                except Exception as exc:
                    error = exc
                    metrics["retries"].labels(sink=sink.label).inc()
                    if attempt < MAX_ATTEMPTS:
                        yield RETRY_BASE_MS * 2 ** (attempt - 1)
                else:
                    metrics["published"].labels(sink=sink.label).inc(
                        len(events))
                    break
            else:
                yield from self._dead_letter(fctx, sink.label, rec["txid"],
                                             pairs, error)
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
        """Synchronous manual drain (tests, scripts): one publisher
        invocation, run to completion."""
        done = self.service.cloud.runtime.invoke_direct(self.fn, None)
        return self.service.cloud.env.run(until=done)

    def subscribe(self, callback: Callable[[Dict[str, Any]], None]) -> Sink:
        """Add a consumer: ``callback(event)`` runs once per delivered
        event, under the publisher's retry and dead-letter policy (raise to
        fail the delivery).  Its sink is labelled ``inproc-<n>``."""
        sink = Sink(f"inproc-{len(self.sinks) + 1}", callback)
        self.sinks.append(sink)
        return sink

    def sink(self, label_or_index: Any = 0) -> Sink:
        """Look up a sink by metric label or position."""
        if isinstance(label_or_index, int):
            return self.sinks[label_or_index]
        for sink in self.sinks:
            if sink.label == label_or_index:
                return sink
        raise KeyError(label_or_index)
