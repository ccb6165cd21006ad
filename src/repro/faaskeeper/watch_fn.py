"""The watch fan-out function (Section 4.1, "Decoupling Watch Delivery").

Delivering one watch may mean notifying hundreds of clients; doing that from
the leader would serialize the write pipeline.  FaaSKeeper moves the fan-out
into a separate *free* function so resource allocation scales with the
number of watchers, while the leader only pays the cheap watch-table query.

The payload is a list of triggered watch instances; each watcher session is
notified in parallel.  The function completes when every delivery finished —
that completion is what the leader's WatchCallback (epoch cleanup) awaits.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from ..cloud.context import boundary
from ..sim.kernel import gather
from .model import EventType, WatchedEvent

__all__ = ["WatchFanoutLogic"]


class WatchFanoutLogic:
    """Behaviour of the watch function, bound to one deployment.

    With a sharded leader pipeline the fan-out is invoked concurrently by
    several shard leaders; invocations are independent (resource allocation
    scales with the number of watchers, as in the single-leader design) and
    the per-shard delivery counters expose the fan-out split for the epoch
    accounting tests and the sharding benchmarks.
    """

    def __init__(self, service) -> None:
        self.service = service
        self._deliveries = service.metrics.counter(
            "fk_watch_deliveries_total",
            "Per-session watch notifications delivered",
            ("origin", "shard"))
        self._invocations = service.metrics.counter(
            "fk_watch_fanouts_total", "Watch fan-out invocations")

    def handler(self, fctx, payload: Dict[str, Any]) -> Generator:
        """payload = {"txid": int, "shard": int, "origin": str,
        "watches": [{watch_id, path, event, sessions}, ...]}"""
        txid = payload["txid"]
        shard = payload.get("shard", 0)
        origin = payload.get("origin", "leader")
        deliveries = []
        for watch in payload["watches"]:
            event = WatchedEvent(type=EventType(watch["event"]),
                                 path=watch["path"], txid=txid)
            for session in watch["sessions"]:
                deliveries.append(boundary(
                    fctx.ctx, "notify", self.service.notify_watch_process(
                        session, watch["watch_id"], event)))
        # A crash mid fan-out leaves the deliveries already on the wire; the
        # retried invocation sends every one again and the client library
        # deduplicates by watch-instance id (one-shot semantics).
        yield from gather(fctx.env, deliveries)
        self._invocations.inc()
        self._deliveries.labels(origin=origin, shard=str(shard)).inc(
            len(deliveries))
        return len(deliveries)
