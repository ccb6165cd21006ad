"""Simulated serverless function runtime (AWS Lambda / Cloud Functions).

Implements the three function classes of Section 2.1:

* **free functions** — direct, API-style invocation (:meth:`DeployedFunction.invoke`);
* **event functions** — invoked by queue triggers (:mod:`repro.cloud.queues`);
* **scheduled functions** — cron-style periodic invocation
  (:meth:`FunctionRuntime.schedule`).

The runtime models the FaaS properties the paper's evaluation depends on:

* **sandbox reuse** — warm starts are ~1 ms, cold starts sample the
  calibrated cold-start model; sandboxes expire after an idle window;
* **memory-dependent I/O** — a function's storage calls are slowed by
  ``io_multiplier(memory_mb)`` (Section 5.3.2: larger allocations buy I/O
  bandwidth, and there is *no yield* — waiting on I/O accrues billed time,
  the paper's Requirement #9);
* **GB-second billing** plus a per-request fee;
* **architecture profiles** — ARM runs small I/O slightly faster but
  payload processing ~2x slower (the leader's observed 94 % slowdown);
* **fault injection** — a crash plan kills an invocation in one of its
  crash windows (:class:`CrashWindows`): at its start, before or after any
  of its boundary calls, or at its end, so tests exercise the paper's
  fault-tolerance arguments (Z1) wherever a function can die.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Generator, List, Optional, Set

from ..sim.kernel import Environment, Process, Yield
from .calibration import CloudProfile, io_multiplier
from .context import OpContext
from .errors import REDELIVERED, FunctionCrash
from .pricing import CostMeter

__all__ = ["FunctionRuntime", "FunctionSpec", "DeployedFunction",
           "FunctionContext", "CrashWindows", "CrashSchedule"]

#: Idle sandbox lifetime before a container is reclaimed (ms).
SANDBOX_IDLE_MS = 15 * 60 * 1000.0
#: Overhead of reusing a warm sandbox (ms).
WARM_OVERHEAD_MS = 1.0


@dataclass
class FunctionSpec:
    """Deployment-time configuration of one function."""

    name: str
    handler: Callable[["FunctionContext", Any], Generator[Yield, Any, Any]]
    memory_mb: int = 2048
    arch: str = "x86"            # "x86" | "arm"
    cpu_alloc: float = 1.0       # GCP: vCPU fraction, independent of memory
    region: str = "us-east-1"
    base_compute_ms: float = 1.0  # fixed per-invocation compute


class FunctionContext:
    """Handed to handlers; carries identity, op context and probes."""

    def __init__(self, env: Environment, function: "DeployedFunction", invocation_id: int) -> None:
        self.env = env
        self.function = function
        # One (frozen, shared) context per resource configuration; keyed by
        # the spec as it reads now, so a later edit of it is honoured.
        spec = function.spec
        key = (spec.memory_mb, spec.arch, spec.region)
        ctx = function.op_contexts.get(key)
        if ctx is None:
            io_mult = io_multiplier(spec.memory_mb)
            if spec.arch == "arm":
                io_mult *= function.runtime.profile.arm_io_factor
            ctx = function.op_contexts[key] = OpContext(
                payer=None, io_mult=io_mult, region=spec.region,
                arch=spec.arch)
        # An armed function gives each invocation a context of its own,
        # carrying that invocation's crash windows.
        plan = function.crash_plan
        doomed = plan(invocation_id) if plan is not None else None
        if doomed is not None:
            ctx = replace(ctx, crash=CrashWindows(
                f"{spec.name}:{invocation_id}", doomed))
        self.ctx = ctx

    @property
    def now(self) -> float:
        return self.env.now

    def record(self, segment: str, elapsed_ms: float) -> None:
        """Hand a timing probe (Fig. 10 / Tab. 3) to ``on_segment``."""
        if self.function.on_segment is not None:
            self.function.on_segment(segment, elapsed_ms)

    def compute(self, base_ms: float = 0.0, payload_kb: float = 0.0,
                per_kb_ms: float = 0.02) -> float:
        """CPU work: serialization/base64 of ``payload_kb`` of data, as the
        delay the handler yields.

        Scaled by the CPU allocation and by the architecture's data-handling
        factor (ARM's large-payload penalty, Section 5.3.2).
        """
        spec = self.function.spec
        profile = self.function.runtime.profile
        factor = 1.0 / max(spec.cpu_alloc, 0.05)
        # Sub-vCPU allocations only slow the (small) compute share: the paper
        # measured just 2-10% end-to-end impact for a 3x smaller CPU.
        factor = 1.0 + (factor - 1.0) * 0.35
        if spec.arch == "arm":
            per_kb_ms = per_kb_ms * profile.arm_data_factor
        return (base_ms + per_kb_ms * payload_kb) * factor


class CrashWindows:
    """Where one armed invocation may die: at ``start``; ``before`` or
    ``after`` each of its boundary calls — a storage op through the retry
    layer, a queue send, a watch delivery — named by its op and that op's
    number (``before:send#1``); at ``end``, its reply lost, so the trigger
    retries.  ``doomed(index, name)`` is asked at each window in turn; the
    invocation dies at the first yes, and once.  A dead invocation starts
    no further call; a dead or done one fires no window of a call still
    running."""

    __slots__ = ("entry", "doomed", "passed", "per_op", "dead", "over")

    def __init__(self, entry: str, doomed: Callable[[int, str], bool]) -> None:
        self.entry = entry  # ``fn:invocation``, a crash entry's prefix
        self.doomed = doomed
        self.passed = 0
        self.per_op: Dict[str, int] = {}
        self.dead = self.over = False

    def window(self, name: str) -> None:
        if not self.over and self.doomed(self.passed, name):
            self.dead = self.over = True
            raise FunctionCrash(f"{self.entry}:{name}")
        self.passed += 1

    def around(self, op: str, work: Generator) -> Generator:
        """Run boundary call ``work`` between its ``before`` and ``after``
        windows (``after`` only if it returns)."""
        if self.dead:
            raise FunctionCrash(f"{self.entry}: dead before {op}")
        n = self.per_op[op] = self.per_op.get(op, 0) + 1
        self.window(f"before:{op}#{n}")
        result = yield from work
        self.window(f"after:{op}#{n}")
        return result


class CrashSchedule(Dict[int, Set[str]]):
    """A scripted crash plan: invocation number -> windows it dies at."""

    def __call__(self, invocation_id: int):
        windows = self.get(invocation_id)
        return windows and (lambda _index, name: name in windows)


class DeployedFunction:
    """One deployed function: sandbox pool, stats, crash plan.

    ``durations_ms`` (a sample per invocation) is a packed ``array("d")``:
    8 bytes a sample, the exact doubles a float list would hold, read with
    ``len``, indexing, slicing and iteration like one."""

    def __init__(self, runtime: "FunctionRuntime", spec: FunctionSpec) -> None:
        self.runtime = runtime
        self.spec = spec
        self._idle_sandboxes: List[float] = []  # last-used timestamps
        self.invocations = 0
        self.cold_starts = 0
        self.failures = 0
        self.durations_ms: array = array("d")
        #: ``crash_plan(invocation_id)`` -> that invocation's ``doomed``
        #: predicate (:class:`CrashWindows`), or None to run it on the
        #: shared context.  None: nothing is armed.
        self.crash_plan: Optional[Callable[[int], Any]] = None
        #: Observer called as ``on_failure(fn, exc)`` when an invocation
        #: dies (crash harnesses model the sandbox loss here); must not
        #: raise — it runs on the provider side of the failure path.
        self.on_failure: Optional[Callable[["DeployedFunction", BaseException], None]] = None
        #: Observer called as ``on_segment(segment, elapsed_ms)`` for every
        #: timing probe the handler records, and its only record (metrics
        #: registries attach here); must not raise or touch the sim clock.
        self.on_segment: Optional[Callable[[str, float], None]] = None
        #: Process name and cost-meter label of every invocation.
        self._label = f"fn:{spec.name}"
        #: (memory_mb, arch, region) -> the context its handlers do I/O under.
        self.op_contexts: Dict[tuple, OpContext] = {}

    # ------------------------------------------------------------ invocation
    def _sandbox_overhead(self) -> tuple[float, bool]:
        """Return (startup overhead ms, was_cold)."""
        now = self.runtime.env.now
        # Reclaim expired sandboxes.
        self._idle_sandboxes = [t for t in self._idle_sandboxes if now - t < SANDBOX_IDLE_MS]
        if self._idle_sandboxes:
            self._idle_sandboxes.pop()
            return WARM_OVERHEAD_MS, False
        return self.runtime.profile.cold_start.sample(self.runtime.rng), True

    def invoke(self, payload: Any, invoke_latency_ms: float = 0.0) -> Process:
        """Fire and forget: start :meth:`run` as a process of its own and
        return it, pre-defused.  A trigger that only waits for the
        invocation runs ``run`` itself (``yield from``)."""
        run = self.runtime.env.process(self.run(payload, invoke_latency_ms),
                                       name=self._label)
        run.defused()
        return run

    def run(self, payload: Any, invoke_latency_ms: float = 0.0):
        """One invocation: returns the handler's result and raises what it
        raises, so triggers can implement retries.  ``invoke_latency_ms`` is
        the trigger-path delay (sampled by the caller from the appropriate
        model: direct, FIFO queue, ...)."""
        env = self.runtime.env
        if invoke_latency_ms > 0:
            yield invoke_latency_ms
        overhead, cold = self._sandbox_overhead()
        if cold:
            self.cold_starts += 1
        yield overhead
        self.invocations += 1
        fctx = FunctionContext(env, self, self.invocations)
        crash = fctx.ctx.crash
        started = env.now
        try:
            yield self.spec.base_compute_ms
            if crash is not None:
                crash.window("start")
            result = yield from self.spec.handler(fctx, payload)
            if crash is not None:
                crash.window("end")
        except BaseException as exc:
            self.failures += 1
            self._finish(started)
            if self.on_failure is not None:
                self.on_failure(self, exc)
            raise
        finally:
            if crash is not None:
                crash.over = True
        self._finish(started)
        return result

    def _finish(self, started: float) -> None:
        env = self.runtime.env
        duration = env.now - started
        self.durations_ms.append(duration)
        self._idle_sandboxes.append(env.now)
        cost = self.runtime.profile.prices.fn_cost(
            self.spec.memory_mb, duration, self.spec.arch
        )
        self.runtime.meter.charge(self._label, "invoke", cost)


class FunctionRuntime:
    """Deploys functions, provides direct invocation and cron schedules."""

    def __init__(self, env: Environment, profile: CloudProfile, meter: CostMeter, rng) -> None:
        self.env = env
        self.profile = profile
        self.meter = meter
        self.rng = rng
        self.functions: Dict[str, DeployedFunction] = {}

    def plan_crash(self, *entries: str) -> None:
        """Script crashes: each entry ``fn:invocation:window`` kills the
        named function's invocation (1-based) in that window (see
        :class:`CrashWindows`), e.g. ``fk-follower:2:after:send#1``."""
        for entry in entries:
            name, invocation, window = entry.split(":", 2)
            fn = self.functions[name]
            if not isinstance(fn.crash_plan, CrashSchedule):
                fn.crash_plan = CrashSchedule()
            fn.crash_plan.setdefault(int(invocation), set()).add(window)

    def deploy(self, spec: FunctionSpec) -> DeployedFunction:
        if spec.name in self.functions:
            raise ValueError(f"function {spec.name!r} already deployed")
        fn = DeployedFunction(self, spec)
        self.functions[spec.name] = fn
        return fn

    def invoke_direct(self, fn: DeployedFunction, payload: Any,
                      payload_kb: float = 0.0) -> Process:
        """Free-function invocation over the direct API path (Table 7a)."""
        latency = self.profile.invoke_direct.sample(self.rng, payload_kb)
        return fn.invoke(payload, invoke_latency_ms=latency)

    def schedule(self, fn: DeployedFunction, period_ms: float,
                 offset_ms: float = 0.0) -> "ScheduledTask":
        """Scheduled-function trigger: invoke every ``period_ms`` with no
        payload.

        ``offset_ms`` phase-shifts the cron (first firing at
        ``offset + period``): a fleet of partitioned sweeps staggers its
        members so they do not all land on the table's capacity bucket in
        the same instant.  The default of 0 is the historical schedule.
        """
        task = ScheduledTask(self, fn, period_ms, offset_ms)
        task.start()
        return task


class ScheduledTask:
    """Cron-style periodic invocation of a function."""

    def __init__(self, runtime: FunctionRuntime, fn: DeployedFunction,
                 period_ms: float, offset_ms: float = 0.0) -> None:
        self.runtime = runtime
        self.fn = fn
        self.period_ms = period_ms
        self.offset_ms = offset_ms
        self.fired = 0
        #: The loop process of the current ``start()``; None while stopped.
        self._proc = None

    @property
    def enabled(self) -> bool:
        return self._proc is not None

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.runtime.env.process(
                self._loop(), name=f"cron:{self.fn.spec.name}")

    def stop(self) -> None:
        """Suspend the schedule (FaaSKeeper stops heartbeats at scale-to-zero)."""
        self._proc = None

    def _loop(self):
        env = self.runtime.env
        # A loop runs only while it *is* the current start()'s process: one
        # parked on its timer across a stop()/start() retires when it wakes
        # instead of firing beside its successor.
        me = env.active_process
        if self.offset_ms:
            # Strictly positive only: a zero-delay timeout would still
            # occupy an event-queue slot and perturb offset-free schedules.
            yield self.offset_ms
        while self._proc is me:
            yield self.period_ms
            if self._proc is not me:
                return
            self.fired += 1
            for _attempt in range(2):
                # Scheduled functions get a provider retry policy; a cloud
                # fault must not kill the cron loop (Section 2.1, "Scheduled").
                try:
                    yield from self.fn.run(None)
                    break
                except REDELIVERED:
                    pass
