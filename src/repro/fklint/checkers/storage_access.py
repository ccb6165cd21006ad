"""FK007 — naked storage call (bypasses the one storage boundary).

Every storage round trip of a deployment goes through
``service.system_store`` / ``service.user_store``.  Unconditionally —
there is no deployment without the boundary — both are
:class:`~repro.faaskeeper.retry.RetryingStore` proxies: the retry/backoff
loop, the idempotence tokens and the per-region circuit breaker (and,
when a fault schedule is armed, the injector bookkeeping behind them).
A handler that acquires a raw client instead — ``cloud.kv(...)``,
``cloud.objectstore(...)``, ``cloud.cache(...)`` — gets none of that: a
single injected throttle becomes a session-fatal error again, and the
chaos suite's zero-fatal-errors guarantee silently stops covering that
call site.

The rule flags any call of an attribute named ``kv``/``objectstore``/
``cache`` inside the handler modules (leader, follower, distributor,
watch_fn, heartbeat, gc, outbox, snapshot).  Backend implementations
(``userstore.py``) and the deployment wiring (``service.py``) own the raw
clients by design and are exempt.  A handler with a genuine reason to
hold a raw client may suppress with ``# fklint: disable=FK007`` plus a
justification — CONTRIBUTING.md documents the bar.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..core import Checker, Finding, LintContext, register
from .handler_state import HANDLER_MODULES

#: Storage-client factory attributes on the Cloud facade.
RAW_CLIENT_ATTRS = {"kv", "objectstore", "cache"}


@register
class StorageAccessChecker(Checker):
    rule = "FK007"
    name = "naked-storage-call"
    description = ("raw storage client acquired in a function-handler "
                   "module (bypasses retry/backoff, idempotence tokens "
                   "and the circuit breaker)")

    def applies(self, ctx: LintContext) -> bool:
        return (ctx.in_dir("repro", "faaskeeper")
                and ctx.basename() in HANDLER_MODULES)

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in RAW_CLIENT_ATTRS:
                continue
            findings.append(ctx.finding(
                self.rule, node,
                f"naked storage call `.{func.attr}(...)` in a handler "
                "module: a raw client is outside the storage boundary "
                "every deployment has (retry, tokens, breaker) — go "
                "through service.system_store / service.user_store "
                "instead"))
        return findings
