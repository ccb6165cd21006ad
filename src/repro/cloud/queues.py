"""Simulated queue services: SQS standard, SQS FIFO, DynamoDB Streams.

Section 3.1 lists the five queue requirements FaaSKeeper relies on:

(a) invokes functions on messages  → each queue owns a dispatcher process;
(b) FIFO order                     → per-group ordered delivery, failed
                                     batches are redelivered before any
                                     younger message of the group;
(c) concurrency limited to one     → single dispatcher per FIFO queue;
(d) batching                       → up to 10 messages per FIFO batch
                                     (the SQS FIFO restriction, §5.2.2);
(e) monotone sequence numbers      → ``Message.seq`` per queue.

The standard queue relaxes (b)/(c): multiple dispatchers, large batches
with a jittered collection window — reproducing the "long batching on
unordered queues" bursts of Figure 7b.  The stream queue subscribes to a
KV table's change stream and delivers records with the (slow) Streams
invocation latency of Table 7a.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Any, Callable, Generator, List, Optional

from ..sim.kernel import Environment, Event
from ..sim.resources import Store
from ..sim.rng import RngRegistry
from .calibration import CloudProfile
from .context import OpContext
from .errors import NoSuchQueue, PayloadTooLarge
from .functions import DeployedFunction
from .kvstore import StreamRecord, Table
from .pricing import CostMeter

__all__ = ["Message", "FifoQueue", "StandardQueue", "StreamTrigger",
           "SharedSequence"]

#: Delay before a failed FIFO batch becomes visible again (ms).
REDELIVERY_BACKOFF_MS = 100.0


class SharedSequence:
    """A monotone counter shared by several queues.

    FaaSKeeper uses the leader queue's sequence number as the transaction
    id.  With a sharded leader pipeline the ids handed out by the shard
    queues must stay globally comparable — the client's MRD tracking and
    the per-node ``applied_tx`` watermarks order txids across shards — so
    every shard queue draws from one counter (SQS FIFO sequence numbers
    are monotone per queue; a real deployment would reserve id ranges or
    use an atomic counter item, which is a single-write operation)."""

    def __init__(self) -> None:
        self.value = 0

    def next(self) -> int:
        self.value += 1
        return self.value


@dataclass
class Message:
    """One queue message."""

    body: Any
    size_kb: float
    group: str
    seq: int
    enqueued_at: float
    receive_count: int = 0


class _QueueBase:
    """Shared bookkeeping: sequence numbers, metering, size limits."""

    #: Namespace of the queue's RNG stream, ``f"{STREAM_KIND}:{name}"``.
    STREAM_KIND = "queue"

    def __init__(
        self,
        name: str,
        env: Environment,
        profile: CloudProfile,
        meter: CostMeter,
        rngs: RngRegistry,
        service_label: str = "queue",
        seq_source: Optional[SharedSequence] = None,
    ) -> None:
        self.name = name
        self.env = env
        self.profile = profile
        self.meter = meter
        self._rngs = rngs
        self._rng: Optional[Random] = None
        self.service_label = service_label
        self._seq = 0
        self._seq_source = seq_source
        self.sent = 0
        self.delivered = 0
        #: Message buffer; ``None`` once the queue has been deleted.
        self._buffer: Optional[Store] = Store(env)

    @property
    def stream_name(self) -> str:
        return f"{self.STREAM_KIND}:{self.name}"

    @property
    def rng(self) -> Random:
        """The queue's named stream, resolved at its first draw.  The seed
        is a pure function of ``(root seed, name)``, so a queue that never
        carries a message owns no generator state and one that does draws
        the same numbers whenever it starts."""
        rng = self._rng
        if rng is None:
            rng = self._rng = self._rngs.stream(self.stream_name)
        return rng

    def _next_seq(self) -> int:
        if self._seq_source is not None:
            self._seq = self._seq_source.next()
            return self._seq
        self._seq += 1
        return self._seq

    def _check_size(self, size_kb: float) -> None:
        if size_kb > self.profile.queue_payload_limit_kb:
            raise PayloadTooLarge(
                f"{size_kb:.1f} kB > {self.profile.queue_payload_limit_kb} kB"
            )

    def _accept(self, ctx: OpContext, body: Any, group: str,
                size_kb: float) -> int:
        """Sequence, bill and buffer one message; returns its number."""
        if self._buffer is None:
            raise NoSuchQueue(self.name)
        seq = self._next_seq()
        if isinstance(body, dict):
            # SQS exposes the assigned sequence number to sender and
            # receiver; FaaSKeeper uses it as the transaction id.
            body = dict(body, _seq=seq)
        self.meter.charge(ctx.payer or self.service_label, "queue_send",
                          self.profile.prices.queue_cost(size_kb))
        self.sent += 1
        self._enqueue(Message(body=body, size_kb=size_kb, group=group,
                              seq=seq, enqueued_at=self.env.now))
        return seq

    def _enqueue(self, msg: Message) -> None:
        self._buffer.put(msg)

    def send(self, ctx: OpContext, body: Any, group: str = "default",
             size_kb: float = 0.0) -> Generator[Event, Any, int]:
        """Enqueue; returns the monotone sequence number (txid source)."""
        if self._buffer is None:
            raise NoSuchQueue(self.name)
        self._check_size(size_kb)
        # The enqueue API call pays the queue-send latency (Table 3 "Push");
        # the remaining trigger latency is applied on the delivery path.
        yield self.env.timeout(
            self.profile.queue_send.sample(self.rng, size_kb) * ctx.io_mult)
        return self._accept(ctx, body, group, size_kb)

    def send_nowait(self, ctx: OpContext, body: Any, group: str = "default",
                    size_kb: float = 0.0) -> int:
        """Zero-latency enqueue, for workload generators."""
        self._check_size(size_kb)
        return self._accept(ctx, body, group, size_kb)

    @property
    def backlog(self) -> int:
        return len(self._buffer) if self._buffer is not None else 0


class FifoQueue(_QueueBase):
    """FIFO queue with a single-instance function trigger.

    Ordering guarantee: within a message group, message *n+1* is never
    handed to the function before message *n* has been processed
    successfully (or dropped after ``max_receive`` failed deliveries).
    """

    def __init__(self, name, env, profile, meter, rngs,
                 service_label: str = "queue",
                 max_receive: Optional[int] = 5,
                 seq_source: Optional[SharedSequence] = None) -> None:
        super().__init__(name, env, profile, meter, rngs, service_label,
                         seq_source=seq_source)
        self.max_receive = max_receive
        self._function: Optional[DeployedFunction] = None
        self._dispatching = False
        self._batch_limit = profile.fifo_batch_limit
        self.on_drop: Optional[Callable[[Message], None]] = None

    @cached_property
    def dropped(self) -> List[Message]:
        """Messages that exhausted ``max_receive`` deliveries."""
        return []

    # ------------------------------------------------------------ trigger
    def attach(self, function: DeployedFunction, batch_limit: Optional[int] = None) -> None:
        """Bind the event function.  The single dispatcher starts with the
        first message, so a queue that never carries one runs no process."""
        if self._function is not None:
            raise ValueError(f"queue {self.name!r} already has a trigger")
        self._function = function
        if batch_limit is not None:
            self._batch_limit = min(batch_limit, self.profile.fifo_batch_limit)
        if self.backlog:  # messages sent before the trigger existed
            self._start_dispatcher(None)

    def _enqueue(self, msg: Message) -> None:
        if self._dispatching or self._function is None:
            self._buffer.put(msg)
        else:
            self._start_dispatcher(msg)

    def _start_dispatcher(self, first: Optional[Message]) -> None:
        self._dispatching = True
        self.env.process(self._dispatch(first), name=f"fifo:{self.name}")

    def delete(self) -> List[Message]:
        """Drop the buffer (with it a parked dispatcher; one mid-delivery
        finishes its batch and ends) and the RNG stream.  Returns the
        messages that will never be delivered."""
        undelivered = list(self._buffer.items) if self.backlog else []
        self._buffer = self._rng = None
        self._rngs.discard(self.stream_name)
        return undelivered

    def _dispatch(self, first: Optional[Message]):
        """The dispatcher: started holding the message that woke the queue
        (``None``: take it from the buffer), parked on the buffer between
        batches."""
        while True:
            buffer = self._buffer
            if buffer is None:
                return  # queue deleted
            if first is None:
                first = yield buffer.get()
            batch = [first]
            first = None
            while len(batch) < self._batch_limit:
                nxt = buffer.get_nowait()
                if nxt is None:
                    break
                batch.append(nxt)
            yield from self._deliver(batch)

    def _deliver(self, batch: List[Message]):
        """Deliver one batch; on failure, redeliver (FIFO blocks the group)."""
        env = self.env
        fn = self._function
        rng = self.rng  # held: a redelivery may outlive the queue's deletion
        total_kb = sum(m.size_kb for m in batch)
        while True:
            for m in batch:
                m.receive_count += 1
            latency = self.profile.invoke_fifo.sample(rng, total_kb)
            # SQS/Lambda per-record pipeline overhead.
            latency += self.profile.fifo_per_msg_ms * len(batch)
            try:
                yield from fn.run([m.body for m in batch], latency)
                self.delivered += len(batch)
                return
            except Exception:
                # Drop messages that exhausted their receive budget, retry
                # the remainder after a visibility backoff.
                if self.max_receive is not None:
                    alive = []
                    for m in batch:
                        if m.receive_count >= self.max_receive:
                            self.dropped.append(m)
                            if self.on_drop is not None:
                                self.on_drop(m)
                        else:
                            alive.append(m)
                    batch = alive
                if not batch:
                    return
                for m in batch:
                    # Receivers can detect redeliveries (SQS exposes the
                    # receive count) — consumers use it for deduplication.
                    if isinstance(m.body, dict):
                        m.body["_redelivered"] = True
                yield env.timeout(REDELIVERY_BACKOFF_MS)


class StandardQueue(_QueueBase):
    """Unordered queue: concurrent dispatchers, large jittered batches.

    Reproduces Figure 7b's behaviour: higher peak throughput than FIFO but
    bursty delivery (messages accumulate during the collection window and
    arrive in large batches).
    """

    def __init__(self, name, env, profile, meter, rngs,
                 service_label: str = "queue",
                 concurrency: int = 4) -> None:
        super().__init__(name, env, profile, meter, rngs, service_label)
        self.concurrency = concurrency
        self._function: Optional[DeployedFunction] = None

    def attach(self, function: DeployedFunction) -> None:
        if self._function is not None:
            raise ValueError(f"queue {self.name!r} already has a trigger")
        self._function = function
        for i in range(self.concurrency):
            self.env.process(self._dispatch(), name=f"std:{self.name}:{i}")

    def _dispatch(self):
        env = self.env
        fn = self._function
        limit = self.profile.std_batch_limit
        while True:
            first = yield self._buffer.get()
            # Jittered collection window: model of the long-poll batching
            # that produces the bursts seen on unordered queues (Figure 7b).
            # A lone message is delivered promptly; sustained load grows the
            # window (receive-batching kicks in) and with it the batch sizes.
            if len(self._buffer) == 0:
                window = self.rng.uniform(2.0, 25.0)
            else:
                window = self.rng.uniform(20.0, 400.0)
            yield env.timeout(window)
            batch = [first]
            while len(batch) < limit:
                nxt = self._buffer.get_nowait()
                if nxt is None:
                    break
                batch.append(nxt)
            total_kb = sum(m.size_kb for m in batch)
            latency = self.profile.invoke_queue.sample(self.rng, total_kb)
            try:
                yield from fn.run([m.body for m in batch], latency)
                self.delivered += len(batch)
            except Exception:
                for m in batch:  # at-least-once: requeue everything
                    self._buffer.put(m)


class StreamTrigger(_QueueBase):
    """DynamoDB Streams: table change records -> function, one shard.

    A single shard processes records strictly in order (the configuration
    the paper uses, §5.2.2) with the high invocation latency of Table 7a.
    Sending is implicit: the trigger subscribes to the table's stream.
    """

    STREAM_KIND = "stream"

    def __init__(self, name, env, profile, meter, rngs, table: Table,
                 function: DeployedFunction,
                 service_label: str = "stream") -> None:
        super().__init__(name, env, profile, meter, rngs, service_label)
        self._function = function
        table.stream_listeners.append(self._on_record)
        self.env.process(self._dispatch(), name=f"stream:{name}")

    def _on_record(self, record: StreamRecord) -> None:
        self.sent += 1
        # Streams bill as DynamoDB read units on the consumer side; the
        # paper's §5.2.2 cost comparison charges 1 kB write units per record.
        self.meter.charge(self.service_label, "stream_record",
                          self.profile.prices.kv_write_cost(1.0))
        self._buffer.put(record)

    def _dispatch(self):
        env = self.env
        while True:
            first = yield self._buffer.get()
            batch: List[StreamRecord] = [first]
            while len(batch) < 1000:
                nxt = self._buffer.get_nowait()
                if nxt is None:
                    break
                batch.append(nxt)
            latency = self.profile.invoke_stream.sample(self.rng, 0.0)
            try:
                yield from self._function.run(batch, latency)
                self.delivered += len(batch)
            except Exception:
                for m in reversed(batch):
                    self._buffer.items.appendleft(m)
                yield env.timeout(REDELIVERY_BACKOFF_MS)
