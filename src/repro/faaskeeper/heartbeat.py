"""The scheduled heartbeat function (Section 3.6, Figure 13).

ZooKeeper sessions exchange keep-alives over their TCP connection; with no
connection to keep, FaaSKeeper inverts the direction: a cron-triggered
function scans the session table, pings every scanned session in parallel
(one timer train per sweep, one element per session, each read at that
session's own reply instant — a session is a timer slot, not a thread),
and starts an eviction (a ``close_session`` request in the session's own
FIFO queue, so it serializes after the session's earlier writes) for
clients that miss the deadline.

Every session is pinged, not just owners of ephemeral nodes: a dead
session that only holds watches (or nothing at all) would otherwise never
be evicted — its session record and FIFO queue leak forever, and every
watch it registered is fanned out to it as if it were alive.  Once it is
evicted, its watch instances cost nothing until the next write to their
paths consumes them (and drops the delivery to the closed client).
Ephemeral owners are still pinged — and therefore evicted — first,
preserving the original eviction ordering.

The sweeps are the deployment's only cron: every other stage is fed by a
queue or invoked directly.

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

from typing import Any, Generator, List, Set

from ..sim.kernel import TimerTrain
from .layout import SYSTEM_SESSIONS

__all__ = ["HeartbeatLogic", "HEARTBEAT_PERIOD_MS"]

#: Period of the heartbeat sweep (ms): AWS's highest cron rate (§5.3.3).
HEARTBEAT_PERIOD_MS = 60_000.0


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
            fctx.ctx, SYSTEM_SESSIONS, segment=self.shard, total_segments=self.shards)
        fctx.record("scan", env.now - t0)

        # Ping every scanned session in parallel, ephemeral owners first
        # (their evictions release ephemeral nodes and must keep their
        # original relative order), reading the stored records in place.
        t0 = env.now
        owners: List[str] = []
        others: List[str] = []
        for sid, item in sessions.items():
            (owners if item.get("ephemeral") else others).append(sid)
        to_check = owners + others
        missed: Set[str] = set()
        if to_check:
            # One timer train for the whole sweep, no process: each session's
            # reply is read at its own reply instant, keyed by the session id
            # its element carries; the last one in wakes the sweep.
            done = env.event()
            answered = self.service.heartbeat_answered
            pending = len(to_check)

            def on_reply(sid: str) -> None:
                nonlocal pending
                if not answered(sid):
                    missed.add(sid)
                pending -= 1
                if not pending:
                    done.succeed()

            delay = self.service.heartbeat_reply_delay
            TimerTrain(env, (delay(sid) for sid in to_check), to_check, on_reply)
            yield done
        fctx.record("ping", env.now - t0)

        self._sweeps.inc()
        self._shard_sweeps.labels(shard=str(self.shard)).inc()
        self._checked.inc(len(to_check))
        expired = [sid for sid in to_check if sid in missed]
        for sid in expired:
            self._evictions.inc()
            yield from self.service.enqueue_eviction(fctx.ctx, sid)
        return {"checked": len(to_check), "evicted": len(expired)}
