"""FK001 — determinism: no ambient wall clock or process RNG.

Every benchmark table and every bit-for-bit fingerprint gate in CI rests
on runs being reproducible from a single seed: time must come from the
sim kernel's virtual clock (``env.now``) and randomness from a named
:class:`repro.sim.rng.RngRegistry` stream (or an explicitly seeded
``random.Random(seed)``).  One stray ``time.time()`` or ``random.random()``
in the service, the cloud models, an example or a benchmark makes output
artifacts (``BENCH_*.json``, fingerprints) machine-dependent and turns
every seeded chaos replay into a heisenbug.

Flags calls to the ambient stdlib clocks (``time.time``/``monotonic``/
``perf_counter``/``sleep``, ``datetime.now``/``utcnow``/``today``), the
module-level ``random.*`` functions (they draw from the global, per-process
stream), **unseeded** ``random.Random()``, ``uuid.uuid1``/``uuid4``,
``os.urandom`` and the ``secrets`` module.  ``random.Random(seed)`` with an
explicit seed argument is allowed — that is the sanctioned escape hatch the
chaos monkey and workload generators use.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import Finding, LintContext
from .common import ImportMap, resolve_call_name

RULE = "FK001"

#: Fully-qualified callables that read ambient time or entropy.
FORBIDDEN_CALLS = {
    "time.time": "use the sim kernel clock (env.now)",
    "time.time_ns": "use the sim kernel clock (env.now)",
    "time.monotonic": "use the sim kernel clock (env.now)",
    "time.monotonic_ns": "use the sim kernel clock (env.now)",
    "time.perf_counter": "use the sim kernel clock (env.now)",
    "time.perf_counter_ns": "use the sim kernel clock (env.now)",
    "time.sleep": "advance virtual time with env.timeout(...) instead",
    "datetime.datetime.now": "use the sim kernel clock (env.now)",
    "datetime.datetime.utcnow": "use the sim kernel clock (env.now)",
    "datetime.datetime.today": "use the sim kernel clock (env.now)",
    "datetime.date.today": "use the sim kernel clock (env.now)",
    "uuid.uuid1": "derive ids from seeded counters or RngRegistry streams",
    "uuid.uuid4": "derive ids from seeded counters or RngRegistry streams",
    "os.urandom": "draw from a seeded RngRegistry stream",
    "secrets.token_bytes": "draw from a seeded RngRegistry stream",
    "secrets.token_hex": "draw from a seeded RngRegistry stream",
    "secrets.token_urlsafe": "draw from a seeded RngRegistry stream",
    "secrets.randbelow": "draw from a seeded RngRegistry stream",
    "secrets.choice": "draw from a seeded RngRegistry stream",
}

#: Module-level ``random.*`` functions: every one of these draws from the
#: process-global stream, whose state no seed in this codebase controls.
GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "gammavariate", "triangular",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "randbytes", "seed", "setstate", "getstate",
}


def check(ctx: LintContext) -> Iterable[Finding]:
    """Wall-clock/ambient-RNG calls in the service, the cloud models, the
    examples and the benchmarks."""
    if not (ctx.in_dir("repro", "faaskeeper") or ctx.in_dir("repro", "cloud")
            or ctx.in_dir("examples") or ctx.in_dir("benchmarks")):
        return
    imports = ImportMap(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = resolve_call_name(node, imports)
        if target is None:
            continue
        hint = FORBIDDEN_CALLS.get(target)
        if hint is not None:
            yield ctx.finding(RULE, node,
                              f"nondeterministic call `{target}()`: {hint}")
            continue
        head, _, tail = target.partition(".")
        if head == "random" and tail in GLOBAL_RANDOM_FNS:
            yield ctx.finding(
                RULE, node,
                f"global-stream RNG call `random.{tail}()`: draw from "
                "a seeded RngRegistry stream or random.Random(seed)")
        elif target == "random.Random" and not node.args and \
                not node.keywords:
            yield ctx.finding(
                RULE, node,
                "unseeded random.Random(): pass an explicit seed so "
                "runs replay bit-for-bit")
