"""The scheduled heartbeat function (Section 3.6, Figure 13).

ZooKeeper sessions exchange keep-alives over their TCP connection; with no
connection to keep, FaaSKeeper inverts the direction: a cron-triggered
function scans the session table, pings every scanned session in parallel
(one reply timer per session — a session is a timeout slot, not a thread),
and starts an eviction (a ``close_session`` request in the session's own
FIFO queue, so it serializes after the session's earlier writes) for
clients that miss the deadline.

Every session is pinged, not just owners of ephemeral nodes: a dead
session that only holds watches (or nothing at all) would otherwise never
be evicted — its session record, FIFO queue and watch registrations leak
forever, and the GC watch sweeper (which keys liveness off the session
table) could never reclaim its instances.  Ephemeral owners are still
pinged — and therefore evicted — first, preserving the original eviction
ordering.

The function also doubles as the "system is online" signal for clients.

The sweep is partitioned: each of the ``session_plane_shards`` scheduled
sweep functions scans one hash slice of the session table (a
DynamoDB-style parallel-scan segment — the whole table when there is one
shard), so sweep latency stays flat as the session count grows.
Ephemeral-first eviction ordering is preserved *per shard* — the global
order was never load-bearing across unrelated sessions, only among the
sessions one sweep evicts together.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from .layout import SYSTEM_SESSIONS

__all__ = ["HeartbeatLogic"]


class HeartbeatLogic:
    """Behaviour of one heartbeat sweep function, bound to one deployment.

    ``shard``/``shards`` select the hash slice of the session table this
    instance owns.  The aggregate counters are shared across every shard's
    instance (the registry returns the same child), so
    ``fk_heartbeat_evictions_total`` etc. stay deployment-wide.
    """

    def __init__(self, service, shard: int, shards: int) -> None:
        self.service = service
        self.shard = shard
        self.shards = shards
        self._sweeps = service.metrics.counter(
            "fk_heartbeat_sweeps_total", "Heartbeat scan/ping rounds")
        self._checked = service.metrics.counter(
            "fk_heartbeat_sessions_checked_total", "Sessions pinged")
        self._evictions = service.metrics.counter(
            "fk_heartbeat_evictions_total",
            "Sessions evicted for missing the ping deadline")
        self._shard_sweeps = service.metrics.counter(
            "fk_heartbeat_shard_sweeps_total",
            "Heartbeat sweeps per session-plane shard", ("shard",))

    def handler(self, fctx, payload: Any) -> Generator:
        env = fctx.env
        t0 = env.now
        sessions = yield from self.service.system_store.scan(
            fctx.ctx, SYSTEM_SESSIONS,
            segment=self.shard, total_segments=self.shards)
        fctx.record("scan", env.now - t0)

        # Ping every scanned session in parallel, ephemeral owners first
        # (their evictions release ephemeral nodes and must keep their
        # original relative order).
        t0 = env.now
        to_check = [sid for sid, item in sessions.items() if item.get("ephemeral")]
        to_check += [sid for sid, item in sessions.items()
                     if not item.get("ephemeral")]
        results: Dict[str, bool] = {}
        if to_check:
            # One timer per session, no process: each reply is read when its
            # timer fires and keyed by the session id the timer carries; the
            # last one in wakes the sweep.
            done = env.event()
            answered = self.service.heartbeat_answered

            def on_reply(reply) -> None:
                results[reply.value] = answered(reply.value)
                if len(results) == len(to_check):
                    done.succeed()

            ping = self.service.heartbeat_ping
            for sid in to_check:
                ping(sid).callbacks.append(on_reply)
            yield done
        fctx.record("ping", env.now - t0)

        self._sweeps.inc()
        self._shard_sweeps.labels(shard=str(self.shard)).inc()
        self._checked.inc(len(to_check))
        expired = [sid for sid in to_check if not results.get(sid, False)]
        for sid in expired:
            self._evictions.inc()
            yield from self.service.enqueue_eviction(fctx.ctx, sid)
        return {"checked": len(to_check), "evicted": len(expired)}
