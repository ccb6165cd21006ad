"""Simulated key-value store (DynamoDB / Datastore).

Provides the semantics FaaSKeeper's system storage needs (Section 3.3):

* atomic per-item updates with **condition expressions** — the substrate of
  the timed lock;
* **update expressions** (SET/ADD/LIST_APPEND/...) — the substrate of atomic
  counters and lists;
* **strongly consistent reads** (required; eventual reads are provided to
  demonstrate why they break Z2/Z3 — tested in the consistency suite);
* per-kB billing, a 400 kB item limit, and a table throughput ceiling
  (Figure 6b);
* an optional **change stream** per table, the AWS "DynamoDB Streams"
  invocation path of Table 7a.

All mutating operations are generators: they charge latency on the virtual
clock *before* applying the mutation atomically, so concurrent processes
interleave exactly as a remote store would interleave their requests.

**Image discipline.**  An item image, once handed to :meth:`Table._store`,
is never mutated again.  That one invariant lets the table, the previous
version kept for eventual reads, stream records, the idempotence-token
ledger and the next update's copy-on-write base all *hold the same dict*.
Updates build a new image that shares every untouched attribute
(:func:`~repro.cloud.expressions.updated_image`).  Only the API boundary
copies, once, with :func:`~repro.cloud.expressions.clone`: every image
returned or raised to a caller (``get_item``, ``update_item``,
``transact_update``, ``scan``, token replays, ``ConditionFailed.item``,
stream-record images when read) and every caller-owned dict entering the
store (``put_item``, ``batch_put``).  Because images are frozen, an item's
billable size is a stored fact, not a walk: computed when the image is
stored, or derived in exact integer bytes from the previous size plus the
delta of the attributes an update touched — so latency and billing see the
same floats a full walk would give.  ``FK_SANITIZE=1`` checks both halves.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..fklint import sanitize
from ..sim.kernel import Environment, Event
from ..sim.resources import TokenBucketLimiter
from .calibration import CloudProfile
from .context import OpContext
from .errors import ConditionFailed, ItemTooLarge, NoSuchTable
from .expressions import (
    Condition,
    UpdateAction,
    clone,
    item_size_bytes,
    updated_image,
)
from .faults import FaultInjector, draw_fault
from .pricing import CostMeter

__all__ = ["KeyValueStore", "Table", "StreamRecord", "scan_segment_of"]


def scan_segment_of(key: str, total_segments: int) -> int:
    """Parallel-scan segment owning ``key``: ``crc32`` so the mapping is
    stable across processes (the builtin ``hash`` is salted per run).  The
    one formula: a heartbeat shard scanning segment *i* of the session
    table sees exactly the sessions that hash to *i*."""
    return zlib.crc32(key.encode()) % total_segments


@dataclass
class StreamRecord:
    """A change record emitted to a table's stream (DynamoDB Streams).

    ``old``/``new`` are the table's own images — shared, not copied at emit
    time, read-only.  Listeners read ``old_image``/``new_image``: a private
    clone made on first access, so a handler cannot corrupt the store and a
    listener that only routes the record pays nothing.
    """

    table: str
    key: str
    old: Optional[Dict[str, Any]]
    new: Optional[Dict[str, Any]]
    sequence: int
    timestamp: float
    old_image = cached_property(lambda self: clone(self.old))
    new_image = cached_property(lambda self: clone(self.new))


@dataclass(slots=True)
class _Versioned:
    """One stored image: ``value`` and ``previous`` are frozen and shared."""

    value: Dict[str, Any]
    #: Exact billable size (kB = bytes / 1024): walked once when stored, or
    #: derived from the previous image's size by :func:`updated_image`.
    size_bytes: int
    written_at: float
    previous: Optional[Dict[str, Any]] = None
    previous_at: float = 0.0
    #: ``FK_SANITIZE=1`` only: a private clone of ``value`` at store time.
    snapshot: Optional[Dict[str, Any]] = None


_NOT_APPLIED = object()


def _size_kb(rec: Optional[_Versioned]) -> float:
    return rec.size_bytes / 1024.0 if rec is not None else 0.0


class Table:
    """One table: a dict of key -> attribute map plus stream subscribers."""

    def __init__(self, name: str, env: Environment, capacity_per_s: float,
                 sanitized: bool = False) -> None:
        self.name = name
        self._env = env
        self._sanitized = sanitized  # the owning store's FK_SANITIZE reading
        self._items: Dict[str, _Versioned] = {}
        #: key -> crc32, remembered by the first segmented scan that needs it
        #: and removed with the key: a sweep then costs one ``%`` per key.
        self._key_crc: Dict[str, int] = {}
        self.limiter = TokenBucketLimiter(env, rate_per_s=capacity_per_s, burst=capacity_per_s / 10)
        self.stream_listeners: List[Callable[[StreamRecord], None]] = []
        self._stream_seq = 0
        self.write_count = 0
        self.read_count = 0

    def __len__(self) -> int:
        return len(self._items)

    def keys(self) -> List[str]:
        return list(self._items.keys())

    def segment_keys(self, segment: int, total_segments: int) -> List[str]:
        """Keys of one parallel-scan segment, in table order — the keys
        with ``scan_segment_of(key, total_segments) == segment``.  One
        segment is the whole table, and no key is hashed for it."""
        if total_segments == 1:
            return self.keys()
        crcs = self._key_crc
        selected = []
        for key in self._items:
            crc = crcs.get(key)
            if crc is None:
                crc = crcs[key] = zlib.crc32(key.encode())
            if crc % total_segments == segment:
                selected.append(key)
        return selected

    def raw(self, key: str) -> Optional[Dict[str, Any]]:
        """Direct (zero-latency) item access for assertions in tests: the
        live stored image, read-only like every holder's view of it."""
        rec = self._items.get(key)
        return None if rec is None else rec.value

    def _get(self, key: str) -> Optional[_Versioned]:
        """The record under ``key``; the sanitizer leg checks it against its
        snapshot here, so the op that observes a corruption raises."""
        rec = self._items.get(key)
        if rec is not None and rec.snapshot is not None:
            if rec.value != rec.snapshot:
                raise sanitize.SanitizerError(
                    f"stored image {self.name}/{key} was mutated in place "
                    "after Table._store; images are frozen — build a new one "
                    "(copy-on-write), see CONTRIBUTING.md")
            if rec.size_bytes != item_size_bytes(rec.value):
                raise sanitize.SanitizerError(
                    f"memoized size of {self.name}/{key} is {rec.size_bytes} B"
                    f" but a full walk gives {item_size_bytes(rec.value)} B")
        return rec

    # -- internal mutation helpers -----------------------------------------
    def _emit(self, key: str, old: Optional[Dict[str, Any]],
              new: Optional[Dict[str, Any]]) -> None:
        if not self.stream_listeners:
            return
        self._stream_seq += 1
        record = StreamRecord(
            table=self.name,
            key=key,
            old=old,
            new=new,
            sequence=self._stream_seq,
            timestamp=self._env.now,
        )
        for listener in self.stream_listeners:
            listener(record)

    def _store(self, key: str, value: Optional[Dict[str, Any]],
               size_bytes: Optional[int] = None) -> None:
        """Install ``value`` (None deletes).  The table takes ownership:
        from here on the image is frozen and shared, never mutated."""
        old_rec = self._get(key)
        old = old_rec.value if old_rec else None
        if value is None:
            self._items.pop(key, None)
            self._key_crc.pop(key, None)
        else:
            self._items[key] = _Versioned(
                value=value,
                size_bytes=item_size_bytes(value) if size_bytes is None else size_bytes,
                written_at=self._env.now,
                previous=old,
                previous_at=old_rec.written_at if old_rec else 0.0,
                snapshot=clone(value) if self._sanitized else None,
            )
        self._emit(key, old, value)


class KeyValueStore:
    """The service facade: named tables + calibrated latency + billing."""

    #: window (ms) within which an eventually-consistent read may serve the
    #: previous version of an item (DynamoDB documents "usually <1 s").
    EVENTUAL_STALENESS_MS = 500.0
    EVENTUAL_STALE_P = 0.33
    #: how long (ms) an applied idempotence token is remembered at least —
    #: DynamoDB's ``ClientRequestToken`` window is 10 minutes; the ledger
    #: forgets a token between one and two windows after it was applied.
    TOKEN_WINDOW_MS = 600_000.0

    def __init__(
        self,
        env: Environment,
        profile: CloudProfile,
        meter: CostMeter,
        rng,
        region: str = "us-east-1",
        service_label: str = "kv",
    ) -> None:
        self.env = env
        self.profile = profile
        self.meter = meter
        self.rng = rng
        self.region = region
        self.service_label = service_label
        self.tables: Dict[str, Table] = {}
        #: ``FK_SANITIZE=1``, read once here: arms the storage-discipline
        #: assertions for this store and the tables it creates.
        self._sanitized = sanitize.enabled()
        #: Armed by deployments running a fault schedule; None (default)
        #: means zero draws and zero overhead on every operation.
        self.faults: Optional[FaultInjector] = None
        #: Idempotence-token ledger (DynamoDB ``ClientRequestToken``): a
        #: mutator carrying a token records its result here at apply time;
        #: a replay of the same token returns the recorded result without
        #: re-applying — the device that makes ambiguous-failure retries
        #: exactly-once.  Results are the stored images themselves (shared).
        #: Two generations, turned over every :attr:`TOKEN_WINDOW_MS` on the
        #: sim clock, bound it without a timestamp per entry.
        self._token_results: Dict[str, Any] = {}
        self._token_previous: Dict[str, Any] = {}
        self._token_turnover = self.TOKEN_WINDOW_MS

    # ------------------------------------------------------------ tables
    def create_table(self, name: str, capacity_per_s: Optional[float] = None) -> Table:
        if name in self.tables:
            raise ValueError(f"table {name!r} already exists")
        table = Table(name, self.env, capacity_per_s or self.profile.kv_capacity_per_s,
                      sanitized=self._sanitized)
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise NoSuchTable(name) from None

    # ------------------------------------------------------------ helpers
    def _latency(self, ctx: OpContext, model, size_kb: float, extra_ms: float = 0.0) -> float:
        value = model.sample(self.rng, size_kb) + extra_ms
        value *= ctx.io_mult
        if ctx.region is not None and ctx.region != self.region:
            value += self.profile.inter_region_extra_ms
            value += self.profile.inter_region_per_kb_ms * size_kb
        return value

    def _admit(self, table: Table, units: float = 1.0) -> float:
        return table.limiter.admit(units)

    def _charge_write(self, ctx: OpContext, size_kb: float) -> None:
        self.meter.charge(ctx.payer or self.service_label, "kv_write",
                          self.profile.prices.kv_write_cost(size_kb))

    def _charge_read(self, ctx: OpContext, size_kb: float, consistent: bool) -> None:
        self.meter.charge(ctx.payer or self.service_label, "kv_read",
                          self.profile.prices.kv_read_cost(size_kb, consistent))

    def _applied(self, token: Optional[str]) -> Any:
        """The result recorded for ``token``, or ``_NOT_APPLIED`` when it is
        new (or was applied more than a window or two ago)."""
        if token is None:
            return _NOT_APPLIED
        now = self.env.now
        if now >= self._token_turnover:
            # Nothing survives a turnover that comes a whole window late.
            idle = now >= self._token_turnover + self.TOKEN_WINDOW_MS
            self._token_previous = {} if idle else self._token_results
            self._token_results = {}
            self._token_turnover = now + self.TOKEN_WINDOW_MS
        recorded = self._token_results.get(token, _NOT_APPLIED)
        if recorded is _NOT_APPLIED:
            recorded = self._token_previous.get(token, _NOT_APPLIED)
        return recorded

    def _finish(self, token: Optional[str], result: Any, fault: Optional[str],
                op: str, table_name: str, key: str) -> None:
        """Close an applied mutation: remember its token, then let a
        partial-write fault lose the reply."""
        if token is not None:
            self._token_results[token] = result
        if fault is not None:
            self.faults.fire_after(fault, f"{op} {table_name}/{key}")

    def _current(self, table: Table, key: str,
                 condition: Optional[Condition]) -> Optional[_Versioned]:
        """The record under ``key``, once ``condition`` holds on its image."""
        rec = table._get(key)
        value = rec.value if rec else None
        if condition is not None and not condition.evaluate(value):
            raise ConditionFailed(item=clone(value))
        return rec

    # ------------------------------------------------------------ operations
    def get_item(
        self,
        ctx: OpContext,
        table_name: str,
        key: str,
        consistent: bool = True,
    ) -> Generator[Event, Any, Optional[Dict[str, Any]]]:
        """Read one item; returns a private clone or None.

        Eventually-consistent reads may return the previous version of a
        recently written item — the behaviour that rules them out for
        FaaSKeeper's system storage (Section 3.3).
        """
        table = self.table(table_name)
        fault = draw_fault(self.faults, "get_item", mutating=False)
        if fault is not None:
            yield from self.faults.fire_before(fault, f"get_item {table_name}/{key}")
        size_kb = _size_kb(table._get(key))
        wait = self._admit(table, 1.0)
        latency = self._latency(ctx, self.profile.kv_read, size_kb)
        yield self.env.timeout(wait + latency)
        table.read_count += 1
        # Re-fetch after the delay: the read observes the state at completion
        # time for strong reads, possibly stale state for eventual ones.
        rec = table._get(key)
        self._charge_read(ctx, size_kb, consistent)
        if rec is None:
            return None
        if not consistent and rec.previous is not None:
            age = self.env.now - rec.written_at
            if age < self.EVENTUAL_STALENESS_MS and self.rng.random() < self.EVENTUAL_STALE_P:
                return clone(rec.previous)
        return clone(rec.value)

    def put_item(
        self,
        ctx: OpContext,
        table_name: str,
        key: str,
        attributes: Dict[str, Any],
        condition: Optional[Condition] = None,
        token: Optional[str] = None,
    ) -> Generator[Event, Any, None]:
        """Full-item write, optionally conditional.

        ``token`` (DynamoDB ``ClientRequestToken``) makes the write
        idempotent: a replay of an already-applied token returns without
        re-applying or re-evaluating the condition.
        """
        if self._sanitized:
            sanitize.check_mutation("put_item", table_name, key,
                                    condition=condition)
        table = self.table(table_name)
        fault = draw_fault(self.faults, "put_item", mutating=True)
        if fault is not None:
            yield from self.faults.fire_before(fault, f"put_item {table_name}/{key}")
        # The request is captured as it is sent: the caller keeps its dict.
        image = clone(attributes)
        size_bytes = item_size_bytes(image)
        size_kb = size_bytes / 1024.0
        if size_kb > self.profile.kv_item_limit_kb:
            raise ItemTooLarge(f"{size_kb:.1f} kB > {self.profile.kv_item_limit_kb} kB")
        conditional = condition is not None
        units = self.profile.kv_conditional_units if conditional else 1.0
        extra = self.profile.kv_conditional_extra_ms if conditional else 0.0
        wait = self._admit(table, units)
        latency = self._latency(ctx, self.profile.kv_write, size_kb, extra)
        yield self.env.timeout(wait + latency)
        table.write_count += 1
        self._charge_write(ctx, size_kb)
        if self._applied(token) is not _NOT_APPLIED:
            return None  # replay of an applied write: nothing to redo
        self._current(table, key, condition)
        table._store(key, image, size_bytes=size_bytes)
        self._finish(token, None, fault, "put_item", table_name, key)

    def update_item(
        self,
        ctx: OpContext,
        table_name: str,
        key: str,
        updates: Sequence[UpdateAction],
        condition: Optional[Condition] = None,
        atomic_hint: bool = False,
        payload_kb: float = 0.0,
        latency_model=None,
        token: Optional[str] = None,
    ) -> Generator[Event, Any, Dict[str, Any]]:
        """Atomically apply update actions iff ``condition`` holds.

        Returns a private clone of the new image.  ``atomic_hint`` selects the
        slightly cheaper latency profile of plain ADD updates (atomic
        counters, Table 6a).  ``payload_kb`` lets callers override the billed
        payload (list appends bill the appended data, not the whole item).
        """
        if self._sanitized:
            sanitize.check_mutation("update_item", table_name, key,
                                    updates=updates, condition=condition)
        table = self.table(table_name)
        fault = draw_fault(self.faults, "update_item", mutating=True)
        if fault is not None:
            yield from self.faults.fire_before(fault, f"update_item {table_name}/{key}")
        size_kb = payload_kb if payload_kb > 0 else _size_kb(table._get(key))
        conditional = condition is not None
        units = self.profile.kv_conditional_units if conditional else 1.0
        if conditional:
            extra = self.profile.kv_conditional_extra_ms
        elif atomic_hint:
            extra = self.profile.kv_atomic_extra_ms
        else:
            extra = 0.0
        model = latency_model or self.profile.kv_write
        wait = self._admit(table, units)
        latency = self._latency(ctx, model, size_kb, extra)
        yield self.env.timeout(wait + latency)
        table.write_count += 1
        self._charge_write(ctx, max(size_kb, 0.001))
        applied = self._applied(token)
        if applied is not _NOT_APPLIED:
            return clone(applied)
        new_value, new_bytes = self._stage(table, key, updates, condition)
        table._store(key, new_value, size_bytes=new_bytes)
        self._finish(token, new_value, fault, "update_item", table_name, key)
        return clone(new_value)

    def _stage(self, table: Table, key: str, updates: Sequence[UpdateAction],
               condition: Optional[Condition]) -> Tuple[Dict[str, Any], int]:
        """Check ``condition``, then build — copy on write, nothing stored
        yet — the updated image and its exact byte size."""
        current = self._current(table, key, condition)
        new_value, new_bytes = updated_image(
            current.value if current else None,
            current.size_bytes if current else 0, updates)
        new_kb = new_bytes / 1024.0
        if new_kb > self.profile.kv_item_limit_kb:
            raise ItemTooLarge(f"{new_kb:.1f} kB > {self.profile.kv_item_limit_kb} kB")
        return new_value, new_bytes

    def delete_item(
        self,
        ctx: OpContext,
        table_name: str,
        key: str,
        condition: Optional[Condition] = None,
        token: Optional[str] = None,
    ) -> Generator[Event, Any, None]:
        if self._sanitized:
            sanitize.check_mutation("delete_item", table_name, key,
                                    condition=condition)
        table = self.table(table_name)
        fault = draw_fault(self.faults, "delete_item", mutating=True)
        if fault is not None:
            yield from self.faults.fire_before(fault, f"delete_item {table_name}/{key}")
        size_kb = _size_kb(table._get(key))
        conditional = condition is not None
        extra = self.profile.kv_conditional_extra_ms if conditional else 0.0
        wait = self._admit(table)
        latency = self._latency(ctx, self.profile.kv_write, min(size_kb, 1.0), extra)
        yield self.env.timeout(wait + latency)
        table.write_count += 1
        self._charge_write(ctx, 1.0)
        if self._applied(token) is not _NOT_APPLIED:
            return None
        self._current(table, key, condition)
        table._store(key, None)
        self._finish(token, None, fault, "delete_item", table_name, key)

    def transact_update(
        self,
        ctx: OpContext,
        ops: Sequence[tuple],
        token: Optional[str] = None,
    ) -> Generator[Event, Any, List[Dict[str, Any]]]:
        """Atomic multi-item conditional update (DynamoDB transactions).

        ``ops`` is a sequence of ``(table, key, updates, condition)`` tuples.
        All conditions are evaluated against the current state; if every one
        holds, all updates apply atomically; otherwise nothing changes and
        :class:`ConditionFailed` is raised.  The paper uses this for
        multi-node commits (creating a node also updates the parent's child
        list — Section 3.1).  Returns the new images, in op order.
        """
        if not ops:
            return []
        if self._sanitized:
            for table_name, key, updates, condition in ops:
                sanitize.check_mutation("update_item", table_name, key,
                                        updates=updates, condition=condition,
                                        transactional=True)
        fault = draw_fault(self.faults, "transact_update", mutating=True)
        if fault is not None:
            yield from self.faults.fire_before(
                fault, f"transact_update {ops[0][0]}/{ops[0][1]}")
        total_kb = 0.0
        for table_name, key, _updates, _cond in ops:
            total_kb += _size_kb(self.table(table_name)._get(key))
        # Transactions consume double capacity units and pay the conditional
        # overhead once per item (DynamoDB bills 2x for transactional writes).
        wait = 0.0
        for table_name, _key, _u, _c in ops:
            wait = max(wait, self._admit(self.table(table_name),
                                         2.0 * self.profile.kv_conditional_units))
        extra = self.profile.kv_conditional_extra_ms * len(ops)
        latency = self._latency(ctx, self.profile.kv_write, total_kb, extra)
        yield self.env.timeout(wait + latency)
        applied = self._applied(token)
        if applied is not _NOT_APPLIED:
            return [clone(image) for image in applied]
        # Atomic check-then-apply at a single instant of virtual time.
        staged: List[tuple] = []
        for table_name, key, updates, condition in ops:
            table = self.table(table_name)
            try:
                staged.append((table, key, *self._stage(table, key, updates, condition)))
            except ConditionFailed as exc:
                for _op in ops:
                    self._charge_write(ctx, 1.0)  # failed transactions still bill
                raise ConditionFailed(
                    f"transaction condition failed on {table_name}/{key}",
                    item=exc.item) from None
        for table, key, new_value, new_bytes in staged:
            table.write_count += 1
            # transactional writes bill 2x write units
            self.meter.charge(
                ctx.payer or self.service_label, "kv_write",
                2.0 * self.profile.prices.kv_write_cost(max(new_bytes / 1024.0, 0.001)),
            )
            table._store(key, new_value, size_bytes=new_bytes)
        images = [new_value for _t, _k, new_value, _b in staged]
        self._finish(token, images, fault, "transact_update", *ops[0][:2])
        return [clone(image) for image in images]

    def scan(
        self,
        ctx: OpContext,
        table_name: str,
        segment: int = 0,
        total_segments: int = 1,
    ) -> Generator[Event, Any, Dict[str, Dict[str, Any]]]:
        """Scan one segment of a table: bills one read per 4 kB of its data.

        ``segment``/``total_segments`` select one slice of a DynamoDB-style
        parallel scan: only keys with ``scan_segment_of(key) == segment``
        are read, and latency, capacity units and billing cover the slice —
        that proportionality is what makes partitioned sweeps cheaper than
        N full scans.  The default, segment 0 of 1, is the whole table.
        The result holds the completion-time images of the keys the scan
        set out to read: one deleted while the request was in flight drops
        out, one inserted meanwhile waits for the next scan.
        """
        table = self.table(table_name)
        if not 0 <= segment < total_segments:
            raise ValueError(
                f"scan segment must be in [0, {total_segments}), got {segment}")
        fault = draw_fault(self.faults, "scan", mutating=False)
        if fault is not None:
            yield from self.faults.fire_before(fault, f"scan {table_name}")
        selected = table.segment_keys(segment, total_segments)
        total_kb = sum(_size_kb(table._get(k)) for k in selected)
        wait = self._admit(table, max(1.0, total_kb / 4.0))
        latency = self._latency(ctx, self.profile.kv_read, total_kb)
        yield self.env.timeout(wait + latency)
        table.read_count += 1
        self._charge_read(ctx, max(total_kb, 1.0), consistent=True)
        found = ((k, table._get(k)) for k in selected)
        return {k: clone(rec.value) for k, rec in found if rec is not None}

    def batch_put(
        self,
        ctx: OpContext,
        table_name: str,
        items: Dict[str, Dict[str, Any]],
        token: Optional[str] = None,
    ) -> Generator[Event, Any, None]:
        """Batch full-item write (DynamoDB ``BatchWriteItem``): one round
        trip's latency for the whole batch, per-item billing, capacity and
        stream emission.  Unconditional puts only — the batched
        session-registration path; conditional writes take ``put_item``.
        """
        if not items:
            return None
        if self._sanitized:
            for key in items:
                sanitize.check_mutation("put_item", table_name, key,
                                        condition=None)
        table = self.table(table_name)
        fault = draw_fault(self.faults, "batch_put", mutating=True)
        if fault is not None:
            first = next(iter(items))
            yield from self.faults.fire_before(
                fault, f"batch_put {table_name}/{first}")
        # The request is captured as it is sent: the caller keeps its dicts.
        images = {key: clone(attributes) for key, attributes in items.items()}
        sizes = {key: item_size_bytes(image) for key, image in images.items()}
        total_kb = 0.0
        for size_bytes in sizes.values():
            size_kb = size_bytes / 1024.0
            if size_kb > self.profile.kv_item_limit_kb:
                raise ItemTooLarge(
                    f"{size_kb:.1f} kB > {self.profile.kv_item_limit_kb} kB")
            total_kb += size_kb
        wait = self._admit(table, float(len(images)))
        latency = self._latency(ctx, self.profile.kv_write, total_kb)
        yield self.env.timeout(wait + latency)
        table.write_count += len(images)
        for size_bytes in sizes.values():
            self._charge_write(ctx, max(size_bytes / 1024.0, 0.001))
        if self._applied(token) is not _NOT_APPLIED:
            return None  # replay of an applied batch: nothing to redo
        for key, image in images.items():
            table._store(key, image, size_bytes=sizes[key])
        self._finish(token, None, fault, "batch_put", table_name, next(iter(images)))
