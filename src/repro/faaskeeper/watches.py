"""Watch registry over the system watch table (Section 3.4), plus the
client-side self-re-arming watch decorators of the high-level API.

Each node path has at most one *watch instance* per watch type; hundreds of
clients may join the same instance (the paper: "multiple clients can be
assigned to a single watch instance").  An instance has a unique identifier
— the value the epoch counter tracks while its notification is in flight.

Registration is a single conditional-free update: ``SetIfNotExists`` on the
instance id plus ``ListAppend`` on the session list, so concurrent
registrations race safely (first writer names the instance; everyone reads
the winning id from the returned image).

Consumption (watches are one-shot, as in ZooKeeper) removes the instance
atomically; the leader then hands the (id, sessions) pairs to the watch
function for fan-out.

:class:`DataWatch` and :class:`ChildrenWatch` sit on top of the one-shot
protocol: they re-register on every delivery *before* re-reading, so a
change landing in the delivery→re-arm window either reaches the fresh read
(registration precedes the fetch inside ``get_data``/``exists``/
``get_children``) or fires the newly armed instance — the same
register-before-read protocol the client read cache relies on.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..cloud.context import OpContext
from ..cloud.errors import ConditionFailed
from ..cloud.expressions import Attr, ListAppend, Remove, SetIfNotExists
from ..cloud.kvstore import KeyValueStore
from ..primitives.atomics import AtomicList
from .exceptions import BadArgumentsError, NoNodeError, SessionClosedError
from .layout import SYSTEM_WATCHES, epoch_key
from .model import EventType, WatchType, validate_path

__all__ = ["WatchRegistry", "TriggeredWatch", "triggered_watch_types",
           "EpochLedger", "DataWatch", "ChildrenWatch"]

_uid = itertools.count(1)


class TriggeredWatch:
    """A consumed watch instance, ready for fan-out."""

    __slots__ = ("watch_id", "path", "wtype", "event", "sessions")

    def __init__(self, watch_id: str, path: str, wtype: WatchType,
                 event: EventType, sessions: List[str]) -> None:
        self.watch_id = watch_id
        self.path = path
        self.wtype = wtype
        self.event = event
        self.sessions = sessions


def triggered_watch_types(op: str, is_parent: bool) -> List[Tuple[WatchType, EventType]]:
    """Which watch types fire for an operation on a node / its parent."""
    if is_parent:
        # Changes to a child fire the parent's children watch.
        if op in ("create", "delete"):
            return [(WatchType.CHILDREN, EventType.NODE_CHILDREN_CHANGED)]
        return []
    if op == "create":
        return [(WatchType.EXISTS, EventType.NODE_CREATED)]
    if op == "set_data":
        return [
            (WatchType.DATA, EventType.NODE_DATA_CHANGED),
            (WatchType.EXISTS, EventType.NODE_DATA_CHANGED),
        ]
    if op == "delete":
        return [
            (WatchType.DATA, EventType.NODE_DELETED),
            (WatchType.EXISTS, EventType.NODE_DELETED),
            (WatchType.CHILDREN, EventType.NODE_DELETED),
        ]
    return []


class EpochLedger:
    """Region epoch counters shared by every leader shard (Section 3.4).

    The single-leader design lets the one warm leader sandbox cache the
    epoch lists in memory (the ``state`` argument of Algorithm 2).  A
    sharded pipeline has several leaders mutating the same counters, so
    the cache moves out of the leader into this ledger: the authoritative
    copy still lives in system storage (every add/remove is one atomic
    list write), while the mirror holds the list returned by the latest
    storage operation and is shared by all shards — the simulation's
    stand-in for the refresh a real deployment gets from the update's
    returned item image.

    Each leader still performs its own cold-start hydration reads
    (:meth:`load`), so the storage traffic of the shards=1 configuration
    is identical to the original private-cache implementation.
    """

    def __init__(self, store: KeyValueStore, table: str,
                 regions: List[str]) -> None:
        self.regions = list(regions)
        self.lists: Dict[str, AtomicList] = {
            region: AtomicList(store, table, epoch_key(region), attr="items")
            for region in self.regions
        }
        self._mirror: Dict[str, List[str]] = {}

    def load(self, ctx: OpContext) -> Generator:
        """Cold-start hydration: read every region's counter from storage."""
        for region in self.regions:
            lst = yield from self.lists[region].get(ctx)
            # A concurrent leader may have mirrored a newer value while this
            # read was in flight; the mirror is write-through, so keep it.
            self._mirror.setdefault(region, list(lst))
        return None

    def snapshot(self, region: str) -> List[str]:
        return list(self._mirror[region])

    def add(self, ctx: OpContext, watch_ids: List[str]) -> Generator:
        for region in self.regions:
            new = yield from self.lists[region].append(ctx, watch_ids)
            self._mirror[region] = list(new)
        return None

    def remove(self, ctx: OpContext, watch_ids: List[str]) -> Generator:
        for region in self.regions:
            new = yield from self.lists[region].remove(ctx, watch_ids)
            self._mirror[region] = list(new)
        return None

    def remove_after(self, invocation_done, watch_ids: List[str],
                     ctx: OpContext) -> Generator:
        """WatchCallback (Algorithm 2, step ➏): wait for the watch fan-out
        to finish, then clear its entries from every region's counter."""
        try:
            yield invocation_done
        except Exception:
            pass  # fan-out retried internally; clear regardless of outcome
        yield from self.remove(ctx, watch_ids)
        return None


class WatchRegistry:
    """Client-side registration and leader-side consumption of watches
    over the one system watch table."""

    def __init__(self, store: KeyValueStore) -> None:
        self.store = store

    def register(self, ctx: OpContext, path: str, wtype: WatchType,
                 session: str) -> Generator[Any, Any, str]:
        """Join (creating if needed) the watch instance; returns its id."""
        candidate = f"w{next(_uid)}|{path}|{wtype.value}"
        image = yield from self.store.update_item(
            ctx, SYSTEM_WATCHES, path,
            updates=[
                SetIfNotExists(f"inst.{wtype.value}.id", candidate),
                ListAppend(f"inst.{wtype.value}.sessions", [session]),
            ],
            payload_kb=0.064,
        )
        return image["inst"][wtype.value]["id"]

    def query(self, ctx: OpContext, path: str
              ) -> Generator[Any, Any, Optional[Dict[str, Any]]]:
        """Leader step ➍ prelude: the per-write watch lookup."""
        return (yield from self.store.get_item(ctx, SYSTEM_WATCHES, path))

    def remove_instance(self, ctx: OpContext, path: str, wtype: str,
                        observed_id: str,
                        observed_sessions: List[str]) -> Generator[Any, Any, bool]:
        """Guarded removal of one watch instance (the GC sweeper's path).

        The ``Remove`` only applies while the instance still matches the
        scan snapshot — same id AND same session list.  The id pin covers a
        watch consumed and re-registered in the scan-to-update window (the
        fresh instance survives); the session pin covers a live session
        *joining* the existing instance in that window (registration keeps
        the id, so the id alone would still sweep the newcomer away).
        Returns True when the instance was removed.
        """
        guard = (Attr(f"inst.{wtype}.id") == observed_id) & \
            (Attr(f"inst.{wtype}.sessions") == list(observed_sessions))
        try:
            yield from self.store.update_item(
                ctx, SYSTEM_WATCHES, path,
                updates=[Remove(f"inst.{wtype}")],
                condition=guard,
                payload_kb=0.064,
            )
        except ConditionFailed:
            return False
        return True

    def query_consume_ops(self, ctx: OpContext, path: str,
                          op_pairs: List[Tuple[str, bool]],
                          ) -> Generator[Any, Any, List[TriggeredWatch]]:
        """Fused query + consume for one path (the leader's step ➍ and the
        distributor's watch stage run one of these per path)."""
        witem = yield from self.query(ctx, path)
        return (yield from self.consume_ops(ctx, path, op_pairs, witem))

    def consume_ops(self, ctx: OpContext, path: str,
                    op_pairs: List[Tuple[str, bool]],
                    watch_item: Optional[Dict[str, Any]],
                    ) -> Generator[Any, Any, List[TriggeredWatch]]:
        """Atomically remove the instances a committed transaction triggers
        on ``path``: the union of the watch types triggered by its
        ``(op, is_parent)`` members.  Each instance is removed — and
        therefore fires — exactly once per transaction, no matter how many
        members touch the path; the first triggering member (in op order)
        names the delivered event type.

        ``watch_item`` is the result of a prior :meth:`query`; when it shows
        no matching instances the consume is free (no storage write).

        The ``Remove`` is conditioned on every removed instance still
        matching the queried snapshot (id AND session list — the same
        device as the GC's :meth:`remove_instance`): a client joining an
        instance *between the query and the removal* would otherwise be
        swept away silently — never notified, its re-arm (and any cache
        entry the instance guards) dead forever.  On a conflict the item
        is re-read and the removal retried, so the late joiner is included
        in the delivery.  The guard costs nothing when there is no race:
        the same single conditional write the unguarded form issued.
        """
        type_events: Dict[WatchType, EventType] = {}
        for op, is_parent in op_pairs:
            for wtype, event in triggered_watch_types(op, is_parent):
                type_events.setdefault(wtype, event)
        while True:
            if not watch_item:
                return []
            instances = watch_item.get("inst", {})
            triggered: List[TriggeredWatch] = []
            removals = []
            guard = None
            for wtype, event in type_events.items():
                inst = instances.get(wtype.value)
                if not inst or not inst.get("sessions"):
                    continue
                triggered.append(TriggeredWatch(
                    watch_id=inst["id"], path=path, wtype=wtype,
                    event=event, sessions=list(inst["sessions"]),
                ))
                removals.append(Remove(f"inst.{wtype.value}"))
                pin = (Attr(f"inst.{wtype.value}.id") == inst["id"]) & \
                    (Attr(f"inst.{wtype.value}.sessions") ==
                     list(inst["sessions"]))
                guard = pin if guard is None else (guard & pin)
            if not removals:
                return []
            try:
                yield from self.store.update_item(
                    ctx, SYSTEM_WATCHES, path, updates=removals,
                    condition=guard, payload_kb=0.064,
                )
            except ConditionFailed:
                watch_item = yield from self.store.get_item(
                    ctx, SYSTEM_WATCHES, path)
                continue
            return triggered


# --------------------------------------------------------------------------
# Client-side self-re-arming watch decorators (kazoo parity)
# --------------------------------------------------------------------------

class _RearmingWatch:
    """Shared machinery of :class:`DataWatch` / :class:`ChildrenWatch`.

    One-shot watches put the re-arm burden on the application; these
    decorators carry it instead: every delivery re-registers the watch and
    re-reads through the client's ordinary read pipeline.  The registration
    happens *before* the re-read (inside ``exists``/``get_data``/
    ``get_children``, which register ahead of the storage fetch), so a
    change racing the re-arm is never lost: it either reaches the fresh
    read or fires the new instance — mirroring the cache-watch protocol.

    Deliveries arriving while a refresh is still running (its nested reads
    pump the event loop) are folded into one trailing refresh instead of
    recursing, so the user callback observes reads in issue order and its
    last invocation always reflects the newest read.
    """

    def __init__(self, client, path: str,
                 func: Optional[Callable] = None) -> None:
        validate_path(path)
        self._client = client
        self._path = path
        self._func: Optional[Callable] = None
        self._stopped = False
        self._busy = False
        self._again = False
        #: Watch notifications received (re-arm accounting for tests).
        self.deliveries = 0
        if func is not None:
            self(func)

    def __call__(self, func: Callable) -> Callable:
        if self._func is not None:
            raise BadArgumentsError("watch already has a callback")
        self._func = func
        self._refresh(initial=True)
        return func

    def stop(self) -> None:
        """Stop watching; the armed instance may still fire once more but
        the callback is no longer invoked."""
        self._stopped = True

    @property
    def active(self) -> bool:
        return not self._stopped and not self._client.closed

    def _on_event(self, _event) -> None:
        self.deliveries += 1
        if not self.active:
            return
        if self._busy:
            self._again = True  # fold into the running refresh's trailing pass
            return
        self._refresh()

    def _refresh(self, initial: bool = False) -> None:
        self._busy = True
        try:
            while True:
                self._again = False
                try:
                    keep = self._deliver(self._read_and_rearm(), initial)
                except SessionClosedError:
                    self._stopped = True
                    return
                initial = False
                if keep is False:
                    self._stopped = True
                    return
                if not self._again or not self.active:
                    return
        finally:
            self._busy = False

    # Subclass hooks -------------------------------------------------------
    def _read_and_rearm(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def _deliver(self, result, initial: bool):  # pragma: no cover - abstract
        raise NotImplementedError


class DataWatch(_RearmingWatch):
    """Self-re-arming data watch, kazoo-style::

        @client.DataWatch("/config")
        def watcher(data, stat):
            ...  # called now, and again on every change

    The callback runs at registration with the current state and after
    every subsequent change; a missing node is reported as ``(None,
    None)`` and the watch keeps waiting for its creation.  Returning
    ``False`` from the callback (or calling :meth:`stop`) ends the watch.

    The re-arm rides an EXISTS watch — it fires on create, data change and
    delete alike, exactly the events a data watch must observe — and the
    data itself is fetched with a plain ``get_data`` afterwards, so reads
    may be served by the client cache.
    """

    def _read_and_rearm(self):
        # Arm first (exists registers the watch before its storage read),
        # then fetch: nothing can change unobserved in between.
        stat = self._client.exists(self._path, watch=self._on_event)
        if stat is None:
            return None, None
        try:
            return self._client.get_data(self._path)
        except NoNodeError:
            # Deleted while the fetch was in flight: the armed instance
            # (or its in-flight delivery) reports the follow-up.
            return None, None

    def _deliver(self, result, initial: bool):
        data, stat = result
        return self._func(data, stat)


class ChildrenWatch(_RearmingWatch):
    """Self-re-arming children watch, kazoo-style::

        @client.ChildrenWatch("/workers")
        def watcher(children):
            ...  # called now, and again on every membership change

    ``send_event=True`` passes the triggering
    :class:`~repro.faaskeeper.model.WatchedEvent` as a second argument
    (None for the initial call).  The watched node must exist at
    registration (:class:`NoNodeError` otherwise); the watch stops when
    the node is deleted.  Returning ``False`` stops it too.
    """

    def __init__(self, client, path: str, func: Optional[Callable] = None,
                 send_event: bool = False) -> None:
        self._send_event = send_event
        self._last_event = None
        self._started = False
        super().__init__(client, path, func)

    def _on_event(self, event) -> None:
        self._last_event = event
        super()._on_event(event)

    def _read_and_rearm(self):
        try:
            return self._client.get_children(self._path,
                                             watch=self._on_event)
        except NoNodeError:
            if not self._started:
                raise  # registration on a missing node is a caller error
            return None  # node deleted: the watch dies with it

    def _deliver(self, children, initial: bool):
        self._started = True
        if children is None:
            return False  # deleted underneath us: stop
        if self._send_event:
            return self._func(children, None if initial else self._last_event)
        return self._func(children)
