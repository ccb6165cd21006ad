"""Seeded crash-restart chaos harness for the FaaSKeeper pipelines.

The simulation's queue/function topology makes every stage boundary a
natural crash point: the leader between commit verification and
replication, a distributor region between its watch stage and its
visibility watermark, the watch fan-out between per-session deliveries.
:class:`ChaosMonkey` arms those points with *seeded, budgeted* random
crashes and models the sandbox loss on every failure, so a test can
assert exactly-once end effects — no lost acknowledged write, no
duplicated watch callback — under hundreds of distinct crash schedules,
each reproducible from its integer seed.

Design constraints the harness respects:

* **determinism** — all randomness flows from one ``random.Random(seed)``;
  the simulation itself is deterministic, so (seed, config) fully
  determines the crash schedule and a CI failure replays locally.
* **liveness** — every (function, point) pair has a finite crash budget.
  Leader, distributor and outbox publisher queues redeliver forever, so
  any finite budget converges; the watch fan-out is a free
  function whose invoker retries ``WATCH_FN_RETRIES`` (2) times, so its
  *total* budget is capped by that retry count (the budget is shared
  across the watch points).
* **crashes only** — storage faults are armed at deploy time by
  ``FaaSKeeperConfig.storage_fault_rate``; crashes compose with them.
* **sandbox loss** — a crashed invocation's warm state is gone: the
  harness hooks :attr:`DeployedFunction.on_failure` and calls the stage
  logic's ``cold_restart()``, so redeliveries re-hydrate epoch mirrors
  and landed-txid memories from storage instead of inheriting them.

``service.user_store.wipe_region`` models a lost user-store replica, the
disaster :meth:`SnapshotManager.recover_region` exists for; the system
tables are the durable record and have no wipe.
:func:`verify_exactly_once` audits a quiesced deployment against the
workload's expectations.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .layout import (
    OUTBOX_DEAD_LETTER_KEY,
    OUTBOX_PUBLISHED_KEY,
    SYSTEM_NODES,
    SYSTEM_STATE,
    epoch_key,
)
from .service import WATCH_FN_RETRIES, FaaSKeeperService

__all__ = ["ChaosMonkey", "CRASH_POINTS", "verify_exactly_once",
           "verify_outbox_delivery"]

#: Stage kind -> crash points the harness knows how to arm.
CRASH_POINTS: Dict[str, Tuple[str, ...]] = {
    "leader": ("leader_entry", "leader_mid_batch", "leader_after_log"),
    "distributor": ("dist_entry", "dist_after_watch_stage",
                    "dist_before_visible"),
    "watch": ("watch_entry", "watch_mid_fanout"),
    "outbox": ("outbox_entry", "outbox_mid_drain", "outbox_after_sink"),
}


class ChaosMonkey:
    """Arm seeded, budgeted crashes across a deployment's stages.

    ``stages`` selects which kinds to attack (default: every kind with
    crash points); ``probability`` is the per-pass crash chance at an
    armed point while its budget lasts.  Crash points only.
    """

    def __init__(self, service: FaaSKeeperService, seed: int,
                 stages: Optional[Iterable[str]] = None,
                 probability: float = 0.25,
                 budget_per_point: int = 2) -> None:
        self.service = service
        self.rng = random.Random(seed)
        self.probability = probability
        #: (function name, point) -> crashes this pair may still inject.
        self._budget: Dict[Tuple[str, str], int] = {}
        #: Crash log: (function name, point, invocation id), in order.
        self.crashes: List[Tuple[str, str, int]] = []
        self.restarts = 0

        wanted = set(stages) if stages is not None else set(CRASH_POINTS)
        unknown = wanted - set(CRASH_POINTS)
        if unknown:
            raise ValueError(f"unknown chaos stages {sorted(unknown)}")

        # Liveness (module docstring): the watch fan-out's budget is shared
        # across ALL its points, so the final retry always runs clean.
        for stage in service.stages:
            if stage.kind not in wanted:
                continue
            points = CRASH_POINTS[stage.kind]
            budget, shared_cap = budget_per_point, None
            if stage.kind == "watch":
                budget = max(1, WATCH_FN_RETRIES // len(points))
                shared_cap = {"left": WATCH_FN_RETRIES}
            stage.fn.on_failure = partial(self._on_failure, stage)
            for point in points:
                self._budget[(stage.name, point)] = budget
                stage.fn.fault_plan[point] = self._predicate(
                    stage.name, point, shared_cap)

    def _predicate(self, name: str, point: str,
                   shared_cap: Optional[Dict[str, int]]):
        key = (name, point)

        def maybe_crash(invocation_id: int) -> bool:
            if self._budget[key] <= 0:
                return False
            if shared_cap is not None and shared_cap["left"] <= 0:
                return False
            if self.rng.random() >= self.probability:
                return False
            self._budget[key] -= 1
            if shared_cap is not None:
                shared_cap["left"] -= 1
            self.crashes.append((name, point, invocation_id))
            return True

        return maybe_crash

    def _on_failure(self, stage, fn, exc: BaseException) -> None:
        """Sandbox loss: the crashed stage's logic drops its warm state
        (a logic without ``cold_restart`` keeps none)."""
        self.restarts += 1
        if hasattr(stage.logic, "cold_restart"):
            stage.logic.cold_restart()


# --------------------------------------------------------------------------
# Exactly-once audit
# --------------------------------------------------------------------------

def verify_exactly_once(service: FaaSKeeperService,
                        expected: Dict[str, Optional[bytes]],
                        acked: Optional[Iterable[Tuple[int, str]]] = None
                        ) -> List[str]:
    """Audit a *quiesced* deployment for exactly-once end effects.

    ``expected`` maps each workload path to the data of its newest
    acknowledged write (None = acknowledged delete); ``acked`` holds the
    ``(txid, path)`` of every node an acknowledged write changed (a
    ``multi()`` contributes one pair per member).  Returns a list of
    violation descriptions (empty = consistent):

    * every system node's pending-transaction list has drained and no
      lock is left behind;
    * every region's user replica holds exactly the acknowledged data,
      with version/txid metadata matching the system store (no lost and
      no resurrected-duplicate write);
    * every acknowledged txid is visible in every region's watermark
      (when the distributor maintains one);
    * every region's epoch counter has drained (no watch notification
      forever in flight).
    """
    violations: List[str] = []
    nodes = service.system_store.table(SYSTEM_NODES)

    for path in sorted(expected):
        final = expected[path]
        item = nodes.raw(path) or {}
        if item.get("transactions"):
            violations.append(
                f"{path}: pending transactions not drained: "
                f"{item['transactions']}")
        if final is None:
            if item.get("exists"):
                violations.append(f"{path}: acked delete but system node alive")
        elif not item.get("exists"):
            violations.append(f"{path}: acked write but system node missing")
        for region in service.config.regions:
            image = service.user_store.peek(region, path)
            if final is None:
                if image is not None:
                    violations.append(
                        f"{path}@{region}: acked delete but replica present")
                continue
            if image is None:
                violations.append(f"{path}@{region}: acked write lost")
                continue
            if image.get("data", b"") != final:
                violations.append(
                    f"{path}@{region}: data mismatch "
                    f"(got {image.get('data', b'')!r}, want {final!r})")
            if item.get("exists") and \
                    image.get("version") != item.get("version"):
                violations.append(
                    f"{path}@{region}: version {image.get('version')} != "
                    f"system {item.get('version')}")
            if item.get("exists") and \
                    image.get("modified_tx") != item.get("modified_tx"):
                violations.append(
                    f"{path}@{region}: modified_tx {image.get('modified_tx')}"
                    f" != system {item.get('modified_tx')}")

    acked = list(acked or ())
    board = service.visibility_board
    if board is not None:
        for txid in sorted({txid for txid, _path in acked}):
            for region in service.config.regions:
                if not board.visible(region, txid):
                    violations.append(
                        f"txid {txid} acked but not visible in {region}")

    state = service.system_store.table(SYSTEM_STATE)
    for region in service.config.regions:
        epoch_item = state.raw(epoch_key(region)) or {}
        if epoch_item.get("items"):
            violations.append(
                f"epoch counter {region} not drained: {epoch_item['items']}")
    violations.extend(verify_outbox_delivery(service, acked))
    return violations


def verify_outbox_delivery(service: FaaSKeeperService,
                           acked: Optional[Iterable[Tuple[int, str]]] = None
                           ) -> List[str]:
    """Audit the outbox's delivery guarantees on a quiesced deployment
    (no-op without the outbox).  At-least-once with redelivery means a
    sink may see duplicates — but only *faithful* ones, and order must
    survive them:

    * deduplicated by ``(txid, path)``, every path's event sequence at
      every sink is strictly increasing in txid (per-path publish order);
    * two deliveries of the same ``(txid, path)`` never disagree on the
      event payload (a redelivery replays, never rewrites);
    * every acknowledged ``(txid, path)`` is accounted for at every sink —
      delivered, or parked in the dead-letter list (no lost events, not
      even one member of a ``multi()``): once the pipeline is quiet no
      shard holds the publish floor below an acked txid, so none is
      exempt.
    """
    violations: List[str] = []
    outbox = service.outbox
    if outbox is None:
        return violations
    state = service.system_store.table(SYSTEM_STATE)
    mark = int((state.raw(OUTBOX_PUBLISHED_KEY) or {}).get("txid", 0))
    dead_by_sink: Dict[str, set] = {}
    for entry in (state.raw(OUTBOX_DEAD_LETTER_KEY) or {}).get("items", []):
        dead_by_sink.setdefault(entry["sink"], set()).update(
            (entry["txid"], path) for path, _op in entry["events"])

    for sink in outbox.sinks:
        label = sink.label
        seen: Dict[Tuple[int, str], Tuple[Any, ...]] = {}
        newest_per_path: Dict[str, int] = {}
        for ev in sink.delivered:
            key = (ev["txid"], ev["path"])
            payload = (ev["op"], ev.get("session"))
            if key in seen:
                if seen[key] != payload:
                    violations.append(
                        f"outbox[{label}]: redelivery of txid {key[0]} on "
                        f"{key[1]} changed payload {seen[key]} -> {payload}")
                continue  # faithful duplicate: legal under at-least-once
            seen[key] = payload
            if newest_per_path.get(ev["path"], 0) >= ev["txid"]:
                violations.append(
                    f"outbox[{label}]: {ev['path']} delivered txid "
                    f"{ev['txid']} after {newest_per_path[ev['path']]}")
            else:
                newest_per_path[ev["path"]] = ev["txid"]
        accounted = seen.keys() | dead_by_sink.get(label, set())
        for txid, path in sorted(set(acked or ())):
            if (txid, path) not in accounted:
                violations.append(
                    f"outbox[{label}]: acked txid {txid} on {path} neither "
                    f"delivered nor dead-lettered (watermark {mark})")
    return violations
