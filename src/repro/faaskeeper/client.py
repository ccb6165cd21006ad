"""FaaSKeeper client library (Section 3.5), modeled after kazoo's API.

Reads go straight to the region-local user store; writes — each a typed
:class:`~repro.faaskeeper.model.Operation` envelope, ``multi()`` batches
included — and ``close()`` travel through the session's FIFO queue to the
follower function.  The real client runs three background threads (send /
receive / order); here every request, whatever its kind and whatever is
deployed behind the queue, rides the same three-stage session pipeline:

* **send** (:meth:`FaaSKeeperClient._send`) — queued requests enter the
  session queue strictly in request order (Z2) and register their response
  event the moment they are issued;
* **receive** (:meth:`FaaSKeeperClient._deliver_response`,
  :meth:`FaaSKeeperClient._deliver_watch`) — responses and watch
  notifications land in whatever order the service produces them;
* **order** (:meth:`FaaSKeeperClient._issue`) — results are released in
  request order: the "lightweight queue on the client".

Reads (:meth:`FaaSKeeperClient._read`) recreate the ordering work a
ZooKeeper server would do for the session, by one rule each:

* **the barrier (FIFO client order + read-your-writes)** — a read waits
  for the responses of exactly the writes outstanding *when it was
  issued*, each of them, in request order.  It never waits for a write
  issued after it, and it never infers one write's response from
  another's: the service may answer out of request order (a rejection
  overtakes an earlier write's acknowledgement; a coalesced write's is
  deferred behind the write that superseded it);
* **visibility** — where an acknowledgement can precede replication, the
  read also waits until its region's watermark covers the acked writes
  issued before it;
* **watch/data ordering (Z4)** — a read that returns a node whose epoch
  set contains one of *this session's* undelivered watch notifications is
  stalled until that notification arrives; the most-recently-delivered
  txid (MRD) gives the fast path: nodes older than everything we have
  seen need no stall.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from ..cloud.errors import NoSuchQueue
from ..sim.kernel import Process, Timeout
from .cache import ClientReadCache
from .exceptions import (
    AccessDeniedError,
    BadArgumentsError,
    BadVersionError,
    FaaSKeeperError,
    NoChildrenForEphemeralsError,
    NodeExistsError,
    NoNodeError,
    NotEmptyError,
    RequestFailedError,
    RetryFailedError,
    RolledBackError,
    SessionClosedError,
    TransactionFailedError,
)
from .model import (
    CheckOp,
    CreateOp,
    DeleteOp,
    KeeperState,
    NodeStat,
    Operation,
    SetDataOp,
    WriteResult,
    acl_allows,
    parent_path,
    Request,
    Response,
    WatchedEvent,
    WatchType,
    validate_path,
)

__all__ = ["FaaSKeeperClient", "FKFuture", "Transaction", "WriteResult",
           "SessionRetry"]

_ERROR_MAP = {
    "no_node": NoNodeError,
    "node_exists": NodeExistsError,
    "bad_version": BadVersionError,
    "not_empty": NotEmptyError,
    "no_children_for_ephemerals": NoChildrenForEphemeralsError,
    "session_closed": SessionClosedError,
    "system_failure": RequestFailedError,
    "system_busy": RequestFailedError,
    "bad_arguments": RequestFailedError,
    "access_denied": AccessDeniedError,
    "rolled_back": RolledBackError,
}


def _error_for(code: str, context: str) -> FaaSKeeperError:
    return _ERROR_MAP.get(code, RequestFailedError)(f"{context}: {code}")


# What each read facade hands back of the node image it fetched (None: no
# such node).
def _data_and_stat(path, image):
    if image is None:
        raise NoNodeError(path)
    return image.get("data", b""), NodeStat.from_image(image)


def _stat_or_none(path, image):
    return None if image is None else NodeStat.from_image(image)


def _children(path, image):
    if image is None:
        raise NoNodeError(path)
    return sorted(image.get("children", []))


def _acl(path, image):
    if image is None:
        raise NoNodeError(path)
    return image.get("acl")


class Transaction:
    """Kazoo-style transaction builder: queue ops, then ``commit()``.

    All queued operations commit atomically — one queue message, one
    follower validation pass, one leader batch — or none do.  ``commit()``
    returns one result per op (kazoo semantics: failures come back as
    exception *instances* in the list, nothing is raised); use
    :meth:`FaaSKeeperClient.multi` for the raising variant.  The builder
    also works as a context manager, committing on clean exit — in that
    form an abort raises :class:`TransactionFailedError` (there is no
    results list to hand back, and a guarded swap must not fail silently).
    """

    def __init__(self, client: "FaaSKeeperClient") -> None:
        self._client = client
        self.operations: List[Operation] = []
        self._committed = False

    # ------------------------------------------------------------ builders
    def create(self, path: str, data: bytes = b"", ephemeral: bool = False,
               sequence: bool = False, acl: Optional[dict] = None) -> "Transaction":
        self.operations.append(CreateOp(path, bytes(data), ephemeral, sequence, acl))
        return self

    def set_data(self, path: str, data: bytes, version: int = -1) -> "Transaction":
        self.operations.append(SetDataOp(path, bytes(data), version))
        return self

    def delete(self, path: str, version: int = -1) -> "Transaction":
        self.operations.append(DeleteOp(path, version))
        return self

    def check(self, path: str, version: int = -1) -> "Transaction":
        self.operations.append(CheckOp(path, version))
        return self

    # ------------------------------------------------------------ commit
    def commit_async(self) -> "FKFuture":
        if self._committed:
            raise BadArgumentsError("transaction already committed")
        future = self._client.multi_async(self.operations)
        self._committed = True  # only once actually submitted
        return future

    def commit(self) -> List[Any]:
        """Commit; per-op results with failures embedded, kazoo-style."""
        try:
            return self.commit_async().wait()
        except TransactionFailedError as exc:
            return exc.results

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None and self.operations and not self._committed:
            # Unlike commit(), the with-form cannot hand embedded results
            # back to the caller, so a rolled-back batch must raise.
            self.commit_async().wait()


class FKFuture:
    """Handle for an in-flight operation (async API).  ``event`` is the
    request's own process: it ends with the operation's result or error."""

    __slots__ = ("_client", "event")

    def __init__(self, client: "FaaSKeeperClient", event: Process) -> None:
        self._client = client
        self.event = event

    @property
    def done(self) -> bool:
        return self.event.triggered

    def wait(self) -> Any:
        """Drive the simulation until the result is available; returns it
        (or raises the operation's error)."""
        return self._client.cloud.env.run(until=self.event)


class SessionRetry:
    """Retry helper for transient coordination failures (kazoo's
    ``KazooRetry``).

    Recipes wrap their storage-visible steps in the session's retry so a
    rejected request (``system_busy`` lock contention, a ``system_failure``
    drop — both :class:`RequestFailedError`) or an aborted ``multi()``
    (:class:`TransactionFailedError`) is re-attempted with exponential
    backoff instead of surfacing.  Extra exception types — e.g.
    :class:`BadVersionError` for compare-and-swap loops like
    ``recipes.Counter`` — ride in via ``retry_exceptions``.  Backoff sleeps
    advance the virtual clock through :meth:`FaaSKeeperClient.sleep`, so
    retries stay deterministic.
    """

    #: Errors every retry loop treats as transient.
    DEFAULT_EXCEPTIONS = (RequestFailedError, TransactionFailedError)

    def __init__(self, client: "FaaSKeeperClient", max_tries: int = 5,
                 delay_ms: float = 50.0, backoff: float = 2.0,
                 max_delay_ms: float = 2_000.0,
                 retry_exceptions: Tuple[type, ...] = ()) -> None:
        if max_tries < 1:
            raise BadArgumentsError(f"max_tries must be >= 1, got {max_tries}")
        self.client = client
        self.max_tries = max_tries
        self.delay_ms = delay_ms
        self.backoff = backoff
        self.max_delay_ms = max_delay_ms
        self.retry_exceptions = self.DEFAULT_EXCEPTIONS + tuple(retry_exceptions)

    def copy(self, **overrides) -> "SessionRetry":
        """A derived retry with some knobs replaced (kazoo's ``copy()``)."""
        kwargs = dict(
            max_tries=self.max_tries, delay_ms=self.delay_ms,
            backoff=self.backoff, max_delay_ms=self.max_delay_ms,
            retry_exceptions=tuple(self.retry_exceptions[
                len(self.DEFAULT_EXCEPTIONS):]),
        )
        kwargs.update(overrides)
        return SessionRetry(self.client, **kwargs)

    def __call__(self, func: Callable, *args, **kwargs) -> Any:
        delay = self.delay_ms
        last: Optional[BaseException] = None
        for attempt in range(self.max_tries):
            try:
                return func(*args, **kwargs)
            except self.retry_exceptions as exc:
                last = exc
                if attempt == self.max_tries - 1:
                    break
                self.client.sleep(delay)
                delay = min(delay * self.backoff, self.max_delay_ms)
        raise RetryFailedError(
            f"{getattr(func, '__name__', func)!r} still failing after "
            f"{self.max_tries} tries") from last


class FaaSKeeperClient:
    """One session's client handle.  Obtain via ``service.connect()``."""

    def __init__(self, service, session_id: str, region: str, queue) -> None:
        self.service = service
        self.cloud = service.cloud
        self.env = service.cloud.env
        self.session_id = session_id
        self.region = region
        self.queue = queue
        self.ctx = service.region_ctx(region)
        self.alive = True          # heartbeat answers (tests flip this)
        self.closed = False
        #: Virtual instant the session closed (client close or eviction) —
        #: the swarm harness derives eviction lag from it.
        self.closed_at: Optional[float] = None
        self.mrd = 0               # most-recently-delivered txid

        self._rid = 0
        self._chain = None                          # completion-order tail
        self._send_tail = None                      # submission-order tail
        config = service.config
        self._cache: Optional[ClientReadCache] = (
            ClientReadCache(config.client_cache_entries)
            if config.client_cache_enabled else None)
        queue.on_drop = self._on_drop

        # --- session lifecycle (kazoo parity) -----------------------------
        self._state = KeeperState.CONNECTED
        #: True once the heartbeat evictor (not the client) closed the
        #: session; the LOST transition is how the client learns of it.
        self.evicted = False

    # Everything below is allocated by the session's first *use* of it: a
    # session that only answers heartbeats owns none of these containers.
    #: rid -> response Event of every queued request still unanswered, in
    #: request order: what a read issued now has to wait for.
    _pending = cached_property(lambda self: {})
    _registered = cached_property(lambda self: {})  # watch id -> callbacks
    _delivered = cached_property(lambda self: set())
    _wait_events = cached_property(lambda self: {})  # watch id -> stall Event
    _watch_ids = cached_property(lambda self: {})   # (path, type) -> wid
    _listeners = cached_property(lambda self: [])   # state listeners
    #: Watch delivery log (tests).
    watch_events = cached_property(lambda self: [])
    #: rid -> txid of acked writes not yet replicated into this client's
    #: region (only where acks precede replication): reads wait on the
    #: region's visibility watermark for them.
    _await_visible = cached_property(lambda self: {})
    #: Default retry policy recipes use for transient failures.
    retry = cached_property(lambda self: SessionRetry(self))
    _process_name = cached_property(lambda self: f"client:{self.session_id}")

    # Kazoo-style watch decorators bound to this session:
    #     @client.DataWatch("/path")
    #     def watcher(data, stat): ...
    def DataWatch(self, path: str, func: Optional[Callable] = None):
        from .watches import DataWatch
        return DataWatch(self, path, func)

    def ChildrenWatch(self, path: str, func: Optional[Callable] = None,
                      send_event: bool = False):
        from .watches import ChildrenWatch
        return ChildrenWatch(self, path, func, send_event)

    # ------------------------------------------------------------ lifecycle state
    @property
    def state(self) -> KeeperState:
        """Current session state (CONNECTED / SUSPENDED / LOST)."""
        return self._state

    def add_listener(self, listener: Callable[[KeeperState], Any]) -> None:
        """Register a state listener, called with the new
        :class:`KeeperState` on every transition (kazoo semantics: the
        listener observes transitions, it is not called at registration)."""
        if not callable(listener):
            raise BadArgumentsError(f"listener must be callable: {listener!r}")
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[KeeperState], Any]) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _transition(self, state: KeeperState) -> None:
        """Move the session state machine; LOST is terminal.  Pure client
        bookkeeping: no simulation events, so pipelines keep their latency
        fingerprints bit-for-bit."""
        if state == self._state or self._state == KeeperState.LOST:
            return
        self._state = state
        # Read past the cached_property: a session that registered no
        # listener must not grow a list (and un-share its instance dict)
        # because its state flipped.
        for listener in list(self.__dict__.get("_listeners", ())):
            try:
                listener(state)
            except Exception:
                pass  # a broken listener must not poison the session

    # ------------------------------------------------------------ plumbing
    def _next_rid(self) -> int:
        self._rid += 1
        return self._rid

    def _mark_closed(self, evicted: bool = False) -> None:
        if not self.closed:
            # First close only: a close after an eviction (or a double
            # close) must not count the session out twice.
            self.service._live_sessions -= 1
        self.closed = True
        self.closed_at = self.env.now
        if evicted:
            self.evicted = True
        if self._cache is not None:
            # A cached entry must not outlive its session: the watches
            # guarding it stop being delivered once the session is closed
            # (the GC sweeper reclaims the instances server-side).
            self._cache.clear()
        # Session death — client close or heartbeat eviction alike — is the
        # LOST transition: ephemeral nodes are gone, the session id is dead.
        self._transition(KeeperState.LOST)
        self._forget_if_settled()

    def _forget_if_settled(self) -> None:
        """A closed session that is owed no response leaves the service's
        registry: nothing can be delivered to it any more, so session churn
        must not grow the deployment."""
        if self.closed and not self._pending:
            self.service.clients.pop(self.session_id, None)

    def _on_drop(self, message) -> None:
        """Poison request dropped by the queue: fail its future."""
        # The service gave up on a request without an answer: the session
        # may still exist, but the connection is in doubt.
        self._transition(KeeperState.SUSPENDED)
        self._fail_request(message, "system_failure")

    def _fail_request(self, message, error: str) -> None:
        """Fail the future of a queued request nobody will answer."""
        body = message.body
        if isinstance(body, dict) and body.get("rid", -1) >= 0:
            self._deliver_response(Response(
                session=self.session_id, rid=body["rid"], ok=False,
                error=error))

    def _deliver_response(self, response: Response) -> None:
        event = self._pending.pop(response.rid, None)
        if event is None or event.triggered:
            return  # duplicate delivery (redelivered batch): first wins
        if response.ok and not self.closed:
            # A successful round trip heals a SUSPENDED session (no-op in
            # the common CONNECTED case; LOST is terminal).
            self._transition(KeeperState.CONNECTED)
        if response.txid:
            self.mrd = max(self.mrd, response.txid)
            board = self.service.visibility_board
            if response.ok and board is not None:
                # Acked before replication (ack_policy="on_commit"): reads
                # must wait for the region watermark to cover this txid.
                # Prune landed entries here too, so a write-only session's
                # tracking stays bounded by its unreplicated backlog.
                self._await_visible = {
                    rid: txid for rid, txid in self._await_visible.items()
                    if not board.visible(self.region, txid)}
                if not board.visible(self.region, response.txid):
                    self._await_visible[response.rid] = response.txid
        event.succeed(response)
        self._forget_if_settled()

    def _deliver_watch(self, watch_id: str, event: WatchedEvent) -> None:
        self._delivered.add(watch_id)
        if self._cache is not None:
            # One-shot watch fired: every cache entry it guarded is stale.
            self._cache.invalidate_watch(watch_id)
        self.mrd = max(self.mrd, event.txid)
        self.watch_events.append(event)
        waiter = self._wait_events.pop(watch_id, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(None)
        for callback in self._registered.pop(watch_id, []):
            if callback is not None:
                callback(event)

    def _check_open(self) -> None:
        if self.closed:
            raise SessionClosedError(self.session_id)

    # ------------------------------------------------------------ order
    def _issue(self, operation: Generator) -> FKFuture:
        """Start ``operation`` as this session's next request; its result is
        released after those of all earlier requests (the client-side FIFO
        completion queue)."""
        prev = self._chain
        self._chain = request = Process(
            self.env, self._ordered(operation, prev), self._process_name)
        request.defused()  # its failure is the caller's to read, or nobody's
        return FKFuture(self, request)

    def _ordered(self, operation: Generator,
                 prev: Optional[Process]) -> Generator:
        error: Optional[Exception] = None
        value: Any = None
        try:
            value = yield from operation
        except Exception as exc:
            error = exc
        if prev is not None and prev.callbacks is not None:  # not processed
            try:
                yield prev
            except Exception:
                pass  # predecessor's failure belongs to its caller
        if error is not None:
            raise error
        return value

    # ------------------------------------------------------------ send
    def _send(self, request: Request,
              finish: Callable[[Response], Any]) -> FKFuture:
        """The one send core every queued request rides — write envelopes
        and ``close_session`` alike; ``finish`` maps the service's response
        to the caller's result (or raises its error).

        The response event is registered here, at issue time: it is what a
        later read's barrier waits on (session read-your-writes).
        """
        response = self.env.event()
        self._pending[request.rid] = response
        sent = self.env.event()
        prev_sent, self._send_tail = self._send_tail, sent
        return self._issue(
            self._round_trip(request, response, prev_sent, sent, finish))

    def _round_trip(self, request: Request, response, prev_sent, sent,
                    finish: Callable[[Response], Any]) -> Generator:
        # The client's single send thread (Section 3.5): submissions of one
        # session enter the queue strictly in request order (Z2), while later
        # pipeline stages still overlap.
        if prev_sent is not None and not prev_sent.processed:
            yield prev_sent
        try:
            yield from self.queue.send(self.ctx, request.to_body(),
                                       group=self.session_id,
                                       size_kb=request.size_kb)
        except NoSuchQueue:
            # The session was closed under this request: it fails like one
            # submitted after the close.
            self._deliver_response(Response(
                session=self.session_id, rid=request.rid, ok=False,
                error="session_closed"))
        finally:
            if self._send_tail is sent:
                self._send_tail = None  # nobody queued behind: nothing to fire
            else:
                sent.succeed(None)
        return finish((yield response))

    # ------------------------------------------------------------ write ops
    def _multi_failure(self, request: Request,
                       response: Response) -> TransactionFailedError:
        """Map a failed write response to per-op typed errors: the culprit's
        own error, RolledBackError for the members undone with it."""
        # Without per-op results the envelope never reached validation
        # (queue drop, leader rejection): every member shares its failure.
        envelope_error = response.error or "system_failure"
        results = [
            _error_for(res.get("error", envelope_error),
                       f"{res.get('op')} {res.get('path')}")
            for res in response.results or request.ops]
        return TransactionFailedError(
            f"multi of {len(request.ops)} ops: {response.error}",
            results=results)

    def _invalidate_written(self, op_name: str, path: str) -> None:
        """Read-your-writes through the cache: the instant this session's
        write is acknowledged, its cached images — and the parent's, whose
        child list a create/delete changed — are stale.  The system watch
        will also fire, but its delivery may trail the response; a read
        issued in between must already miss."""
        if self._cache is None or op_name == "check":
            return  # a check writes nothing: its path's entries stay valid
        self._cache.invalidate_path(path)
        if op_name in ("create", "delete"):
            parent = parent_path(path)
            if parent:
                self._cache.invalidate_path(parent)

    def _submit(self, ops: List[Operation], unwrap: bool) -> FKFuture:
        """The one submission core: validate, wrap in an envelope, send,
        map the typed per-op results.

        ``unwrap`` is the only trace of which facade was called: the
        per-method APIs submit one member and hand back its bare typed
        value (or raise its typed error), ``multi()`` hands back the list
        (or raises :class:`TransactionFailedError`).
        """
        self._check_open()
        for op in ops:
            op.validate()
        req = Request.from_operations(self.session_id, self._next_rid(), ops)
        return self._send(req, partial(self._written, req, ops, unwrap))

    def _written(self, request: Request, ops: List[Operation], unwrap: bool,
                 response: Response) -> Any:
        if not response.ok:
            failure = self._multi_failure(request, response)
            raise failure.results[0] if unwrap else failure
        for res in response.results:
            self._invalidate_written(res["op"], res["path"])
        results = [op.result_from_multi(res)
                   for op, res in zip(ops, response.results)]
        return results[0] if unwrap else results

    def create_async(self, path: str, data: bytes = b"",
                     ephemeral: bool = False, sequence: bool = False,
                     acl: Optional[dict] = None) -> FKFuture:
        return self._submit([CreateOp(path, bytes(data), ephemeral,
                                      sequence, acl)], unwrap=True)

    def set_data_async(self, path: str, data: bytes,
                       version: int = -1) -> FKFuture:
        return self._submit([SetDataOp(path, bytes(data), version)],
                            unwrap=True)

    def delete_async(self, path: str, version: int = -1) -> FKFuture:
        return self._submit([DeleteOp(path, version)], unwrap=True)

    def close_async(self) -> FKFuture:
        self._check_open()
        request = Request(self.session_id, self._next_rid(), "close_session")
        return self._send(request, self._closed)

    def _closed(self, response: Response) -> None:
        if not response.ok:
            raise _error_for(response.error, "close_session")
        self._mark_closed()

    # ------------------------------------------------------------ multi
    def multi_async(self, ops: Iterable[Operation]) -> FKFuture:
        """Submit an atomic transaction (ZooKeeper ``multi`` semantics).

        All member ops commit under one transaction id or none do.  The
        future resolves to one typed result per op, in op order; on failure
        it raises :class:`TransactionFailedError` whose ``results`` carry
        the per-op typed errors.
        """
        ops = list(ops)
        if not ops:
            raise BadArgumentsError("multi needs at least one operation")
        for op in ops:
            if not isinstance(op, Operation):
                raise BadArgumentsError(f"not an Operation: {op!r}")
        return self._submit(ops, unwrap=False)

    def multi(self, ops: Iterable[Operation]) -> List[Any]:
        """Atomically commit ``ops``; returns per-op typed results or raises
        :class:`TransactionFailedError` (no op applied)."""
        return self.multi_async(ops).wait()

    def transaction(self) -> Transaction:
        """Kazoo-style transaction builder bound to this session."""
        return Transaction(self)

    # ------------------------------------------------------------ read ops
    def _register_watch(self, path: str, wtype: WatchType,
                        callback: Optional[Callable]) -> Generator:
        wid = yield from self.service.watch_registry.register(
            self.ctx, path, wtype, self.session_id)
        self._watch_ids[(path, wtype.value)] = wid
        self._registered.setdefault(wid, []).append(callback)
        return wid

    def _register_cache_watch(self, path: str, wtype: WatchType) -> Generator:
        """System watch guarding a cache entry.  If this session already
        holds an undelivered watch on the same instance (a user watch, or a
        previous cache miss whose entry was evicted), reuse it instead of
        appending the session to the instance again — one notification per
        session per instance, and no extra storage write."""
        wid = self._watch_ids.get((path, wtype.value))
        if wid is not None and wid in self._registered \
                and wid not in self._delivered:
            return wid
        return (yield from self._register_watch(path, wtype, None))

    def _await_visibility(self, board, rid_cut: int) -> Generator:
        """Hold the read until this session's acked writes (issued before
        the read — ``rid_cut``) are covered by the ``replicated_tx``
        visibility watermark of the region the read is served from.  Only
        deployments that acknowledge before replicating keep such a
        watermark (``board``); the barrier already waited for the
        responses, so every relevant write has an entry here."""
        # Snapshot the items: response deliveries rebuild the dict while
        # this generator is suspended in board.wait.
        for rid, txid in sorted(self._await_visible.items()):
            if rid > rid_cut:
                continue
            yield from board.wait(self.region, txid)
        self._await_visible = {
            rid: txid for rid, txid in self._await_visible.items()
            if not board.visible(self.region, txid)}

    def _gate(self, path: str, image: Dict[str, Any]) -> Generator:
        """What every read pays once it holds an image, cached or fetched:
        only the storage round trip separates a hit from a miss."""
        # Read permissions are enforced at the storage boundary (the paper:
        # "read permissions can be enforced with cloud storage ACLs").
        acl = image.get("acl")
        if acl and not acl_allows(acl, "read", self.session_id):
            raise AccessDeniedError(path)
        # Z4: hold the read until this session's pending notifications for
        # the node's epoch have been delivered.  MRD fast path: an image
        # strictly older than everything delivered needs no stall.
        epoch = image.get("epoch")
        if epoch and image.get("modified_tx", 0) >= self.mrd:
            for wid in epoch:
                if wid in self._registered and wid not in self._delivered:
                    waiter = self._wait_events.get(wid)
                    if waiter is None:
                        waiter = self.env.event()
                        waiter.defused()
                        self._wait_events[wid] = waiter
                    if not waiter.processed:
                        yield waiter
        # Client-library overhead: result sorting, watch bookkeeping and
        # deserialization add ~2% (Section 5.3.1).
        data_kb = len(image.get("data", b"") or b"") / 1024.0
        yield Timeout(self.env, 0.05 + 0.002 * data_kb)

    def _read(self, path: str, barrier: List, rid_cut: int,
              project: Callable[[str, Optional[Dict[str, Any]]], Any],
              watch: Optional[Callable], wtype: Optional[WatchType],
              cache_wtype: Optional[WatchType]) -> Generator:
        """The one read core: arm the watch, pass the barrier, take the
        node image from the cache or the user store, ``project`` it."""
        wid: Optional[str] = None
        if watch is not None:
            wid = yield from self._register_watch(path, wtype, watch)
        # Session FIFO processing (ZooKeeper read-your-writes): the fetch
        # starts only after the response of every write that was outstanding
        # when this read was issued — each of them, since the service may
        # answer out of request order.  Writes themselves pipeline.
        for response in barrier:
            if not response.processed:
                yield response
        # Acked ≠ readable where acks precede replication: wait for the
        # region's visibility watermark too (before consulting the cache,
        # so hits observe the same barrier as storage reads).
        board = self.service.visibility_board
        if board is not None and self._await_visible:
            yield from self._await_visibility(board, rid_cut)
        cache = self._cache if cache_wtype is not None else None
        if cache is not None:
            image = cache.lookup(path, cache_wtype, require_watch_id=wid)
            if image is not None:
                yield from self._gate(path, image)
                return project(path, image)
            # Register the guarding watch (the caller's own, if it armed
            # one that still stands) BEFORE the read: any write that commits
            # after this point fires it, so an entry can never be installed
            # without a live invalidation channel.
            wid = yield from self._register_cache_watch(path, cache_wtype)
        image = yield from self.service.user_store.read_node(
            self.ctx, self.region, path)
        if image is None or image.get("deleted"):
            return project(path, None)
        yield from self._gate(path, image)
        if cache is not None and wid not in self._delivered:
            # The watch may have fired while the read was in flight (a
            # fan-out race): an already-consumed guard must not admit the
            # entry, or it would never be invalidated.
            cache.admit(path, cache_wtype, image, wid)
        return project(path, image)

    def _read_async(self, path: str, watch: Optional[Callable],
                    project: Callable, wtype: Optional[WatchType],
                    cache_wtype: Optional[WatchType]) -> FKFuture:
        """Issue a read: ``wtype`` is the watch ``watch`` arms,
        ``cache_wtype`` the cache entry (and its guard) the image shares."""
        self._check_open()
        validate_path(path)
        if watch is not None and wtype is not cache_wtype:
            # A caller arming a fresh watch must not be handed an image
            # older than the change that consumed the previous instance.
            # ``require_watch_id`` enforces that when the armed watch *is*
            # the entry's guard; an instance id of another type (exists()
            # arms EXISTS over the DATA entry) is incomparable with it, so
            # that read goes to storage.
            cache_wtype = None
        # The barrier: the writes outstanding right now, in request order —
        # never a write issued after this read.
        return self._issue(self._read(
            path, list(self._pending.values()), self._rid, project, watch,
            wtype, cache_wtype))

    def get_data_async(self, path: str,
                       watch: Optional[Callable] = None) -> FKFuture:
        return self._read_async(path, watch, _data_and_stat,
                                WatchType.DATA, WatchType.DATA)

    def exists_async(self, path: str,
                     watch: Optional[Callable] = None) -> FKFuture:
        # An exists() is a stat of the same node image get_data fetches, so
        # it shares the (path, DATA) cache entry and its DATA-watch guard.
        return self._read_async(path, watch, _stat_or_none,
                                WatchType.EXISTS, WatchType.DATA)

    def get_children_async(self, path: str,
                           watch: Optional[Callable] = None) -> FKFuture:
        return self._read_async(path, watch, _children,
                                WatchType.CHILDREN, WatchType.CHILDREN)

    def get_acl_async(self, path: str) -> FKFuture:
        return self._read_async(path, None, _acl, None, None)

    # ------------------------------------------------------------ helpers
    def sleep(self, delay_ms: float) -> None:
        """Advance the virtual clock by ``delay_ms`` (the simulation's
        stand-in for ``time.sleep`` — retry backoffs and recipe hold times
        go through here so runs stay deterministic)."""
        if delay_ms < 0:
            raise BadArgumentsError(f"negative delay {delay_ms!r}")
        self.env.run(until=self.env.now + delay_ms)

    def co_ensure_path(self, path: str,
                       acl: Optional[dict] = None) -> Generator:
        """Recursively create ``path`` and any missing ancestors (kazoo's
        ``ensure_path``), as a generator for simulation-process callers
        (the recipe cores).  Existing nodes are left untouched; concurrent
        creators racing on a segment are absorbed (`NodeExistsError` means
        someone else won, which is just as good).  Returns True."""
        self._check_open()
        validate_path(path)
        if path == "/":
            return True
        prefix = ""
        for segment in path[1:].split("/"):
            prefix += "/" + segment
            stat = yield self.exists_async(prefix).event
            if stat is not None:
                continue
            try:
                yield self.create_async(prefix, b"", acl=acl).event
            except NodeExistsError:
                pass
        return True

    def ensure_path(self, path: str, acl: Optional[dict] = None) -> bool:
        """Synchronous form of :meth:`co_ensure_path`."""
        env = self.env
        return env.run(until=env.process(self.co_ensure_path(path, acl),
                                         name=self._process_name))

    # ------------------------------------------------------------ sync API
    def create(self, path: str, data: bytes = b"", ephemeral: bool = False,
               sequence: bool = False, acl: Optional[dict] = None) -> str:
        """Create a node; returns the (possibly sequence-suffixed) path.

        ``acl`` maps permissions (read/write/create/delete) to lists of
        session ids, with ``"world"`` as the wildcard; None = open access.
        """
        return self.create_async(path, data, ephemeral, sequence, acl).wait()

    def get_acl(self, path: str) -> Optional[dict]:
        """Read a node's ACL (None = open access)."""
        return self.get_acl_async(path).wait()

    def set_data(self, path: str, data: bytes, version: int = -1) -> WriteResult:
        """Replace node data, optionally conditional on ``version``."""
        return self.set_data_async(path, data, version).wait()

    def delete(self, path: str, version: int = -1) -> None:
        """Delete a (childless) node."""
        return self.delete_async(path, version).wait()

    def get_data(self, path: str,
                 watch: Optional[Callable] = None) -> Tuple[bytes, NodeStat]:
        """Read node data + stat; optionally register a data watch."""
        return self.get_data_async(path, watch).wait()

    def exists(self, path: str,
               watch: Optional[Callable] = None) -> Optional[NodeStat]:
        """Stat a node (None when absent); optionally register an exists watch."""
        return self.exists_async(path, watch).wait()

    def get_children(self, path: str,
                     watch: Optional[Callable] = None) -> List[str]:
        """List child names; optionally register a children watch."""
        return self.get_children_async(path, watch).wait()

    def close(self) -> None:
        """Close the session; ephemeral nodes are deleted by the system."""
        return self.close_async().wait()

    def __enter__(self) -> "FaaSKeeperClient":
        return self

    def __exit__(self, *exc) -> None:
        if not self.closed:
            self.close()
