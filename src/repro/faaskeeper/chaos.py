"""Seeded crash-restart chaos harness for the FaaSKeeper pipelines.

:class:`ChaosMonkey` kills invocations of whole stage kinds in their crash
windows (:class:`repro.cloud.functions.CrashWindows`: the start, before or
after any storage op, queue send or watch delivery, the end) and models
the sandbox loss on every failure, so a test can assert exactly-once end
effects under hundreds of crash schedules.  The harness keeps to:

* **determinism** — its draws come from one ``random.Random(seed)`` and
  the simulation is deterministic, so (seed, config) fixes the schedule;
  each crash is logged as the ``fn:invocation:window`` entry that
  :meth:`FunctionRuntime.plan_crash` replays;
* **liveness** — every armed function has a finite budget: the leader,
  distributor and outbox queues redeliver forever, and the watch
  fan-out's invoker retries ``WATCH_FN_RETRIES`` times, its budget;
* **crashes only** — storage faults are armed on the running deployment
  (``FaaSKeeperService.arm_storage_faults``) and compose with them;
* **sandbox loss** — :attr:`DeployedFunction.on_failure` calls the stage
  logic's ``cold_restart()``: redeliveries re-hydrate their warm state.

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

__all__ = ["ChaosMonkey", "verify_exactly_once", "verify_outbox_delivery"]


class ChaosMonkey:
    """Arm seeded, budgeted crashes across a deployment's stages.

    Every function of a kind in ``stages`` (default :attr:`STAGES`) holds
    one budget of :attr:`BUDGET` crashes (the watch fan-out:
    ``WATCH_FN_RETRIES``, so its last retry runs clean).  While it lasts,
    an invocation is doomed with chance ``probability`` and dies at a
    window drawn uniformly from as many as the function's longest
    finished invocation passed — or runs clean if it ends sooner.
    ``crashes`` logs ``fn:invocation:window``.
    """

    #: The kinds armed by default: the queue- and invoke-triggered stages
    #: downstream of the follower.
    STAGES = ("leader", "distributor", "watch", "outbox")
    #: Crashes each armed function may take (the watch fan-out's differs).
    BUDGET = 4

    def __init__(self, service: FaaSKeeperService, seed: int,
                 stages: Optional[Iterable[str]] = None,
                 probability: float = 0.25) -> None:
        self.service = service
        self.rng = random.Random(seed)
        self.probability = probability
        #: Function name -> crashes it may still take.
        self._budget: Dict[str, int] = {}
        #: Function name -> windows its longest finished invocation passed
        #: (0 until one finishes: nothing is doomed blind).
        self._span: Dict[str, int] = {}
        #: Crash log: ``fn:invocation:window`` entries, in order.
        self.crashes: List[str] = []
        self.restarts = 0

        wanted = set(self.STAGES if stages is None else stages)
        unknown = wanted - set(self.STAGES)
        if unknown:
            raise ValueError(f"unknown chaos stages {sorted(unknown)}")
        for stage in service.stages:
            if stage.kind not in wanted:
                continue
            name = stage.name
            self._budget[name] = (WATCH_FN_RETRIES if stage.kind == "watch"
                                  else self.BUDGET)
            self._span[name] = 0
            stage.fn.on_failure = partial(self._on_failure, stage)
            stage.fn.crash_plan = partial(self._arm, name)

    def _arm(self, name: str, invocation: int):
        """One invocation's ``doomed`` predicate: draws its window, if any,
        and learns the function's span from the windows it passed."""
        target = None
        if (self._span[name] and self._budget[name] > 0
                and self.rng.random() < self.probability):
            target = self.rng.randrange(self._span[name])

        def doomed(index: int, window: str) -> bool:
            if window == "end" and index >= self._span[name]:
                self._span[name] = index + 1
            if index != target or self._budget[name] <= 0:
                return False
            self._budget[name] -= 1
            self.crashes.append(f"{name}:{invocation}:{window}")
            return True

        return doomed

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
      live lock is left behind — every item of the node table, not only
      the workload's paths;
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
    now = service.cloud.env.now
    for path in sorted(nodes.keys()):
        item = nodes.raw(path) or {}
        if item.get("transactions"):
            violations.append(
                f"{path}: pending transactions not drained: "
                f"{item['transactions']}")
        if service.node_lock.live(item, now):
            violations.append(f"{path}: lock left behind: {item['lock']}")

    for path in sorted(expected):
        final = expected[path]
        item = nodes.raw(path) or {}
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
            for attr in ("version", "modified_tx"):
                if item.get("exists") and image.get(attr) != item.get(attr):
                    violations.append(
                        f"{path}@{region}: {attr} {image.get(attr)} != "
                        f"system {item.get(attr)}")

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
