"""FK005 — no blocking calls inside ``co_*`` coroutine cores.

Recipes and the client expose two faces: a synchronous facade that runs
the event loop (``env.run(until=...)``) and a ``co_*`` generator core
that *is run by* the loop.  Calling a blocking facade — or ``env.run``
or ``time.sleep`` — from inside a ``co_*`` core re-enters the kernel
from within one of its own processes: at best ``RuntimeError``, at
worst a silently nested run that executes other sessions' callbacks at
the wrong virtual time.  Inside a coroutine, every storage/client step
must be awaited (``yield client.x_async(...).event`` or
``yield from self.co_x(...)``) and every delay must be a kernel timeout.

The rule flags, inside any ``co_*``/``_co_*`` function: ``time.sleep``;
``env.run``/``self._run``; and sync client-facade methods (``create``,
``get_data``, ``acquire``, ...) invoked on a ``client`` object — the
``*_async`` variants are of course fine.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..core import Finding, LintContext
from .common import ImportMap, dotted_name, resolve_call_name

RULE = "FK005"

#: Sync client-facade methods (each has an ``*_async`` twin).
BLOCKING_CLIENT_METHODS = {
    "create", "delete", "exists", "get", "get_data", "set_data",
    "get_children", "ensure_path", "get_acl", "set_acl", "sync", "multi",
    "acquire", "release", "wait",
}


def _chain_parts(node: ast.expr) -> List[str]:
    name = dotted_name(node)
    return name.split(".") if name else []


def check(ctx: LintContext) -> Iterable[Finding]:
    """Blocking calls inside the ``co_*`` cores of the service and cloud."""
    if not (ctx.in_dir("repro", "faaskeeper") or ctx.in_dir("repro", "cloud")):
        return
    imports = ImportMap(ctx.tree)
    for func in ast.walk(ctx.tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                func.name.lstrip("_").startswith("co_"):
            yield from _check_coroutine(ctx, func, imports)


def _check_coroutine(ctx: LintContext, func: ast.AST,
                     imports: ImportMap) -> Iterable[Finding]:
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        if resolve_call_name(node, imports) == "time.sleep":
            yield ctx.finding(
                RULE, node,
                "time.sleep inside a co_* core blocks the whole "
                "kernel: yield env.timeout(delay_ms) instead")
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        method = node.func.attr
        chain = _chain_parts(node.func.value)
        tail = chain[-1] if chain else ""
        if method in ("run", "_run") and \
                (tail in ("env", "") or tail.endswith("env")
                 or method == "_run"):
            yield ctx.finding(
                RULE, node,
                f"`{'.'.join(chain + [method])}()` inside a co_* core "
                "re-enters the event loop from one of its own "
                "processes: yield the async event instead")
        elif method in BLOCKING_CLIENT_METHODS and \
                ("client" in tail or tail == "zk"):
            yield ctx.finding(
                RULE, node,
                f"sync client facade `{tail}.{method}()` inside a "
                f"co_* core: use `yield {tail}.{method}_async(...)"
                ".event` (or `yield from` the co_ form)")
