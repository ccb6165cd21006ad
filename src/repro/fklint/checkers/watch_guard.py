"""FK003 — guarded watch removal.

The watch table maps a path to at-most-one instance per watch type, with
a session list that concurrent registrations append to.  Removing an
instance with a plain ``Remove`` races registration: a session that
joined (or re-created) the instance between the reader's snapshot and
the removal is swept away *silently* — never notified, its re-arm dead,
any cache entry the instance guards stale forever.  This exact bug was
found and fixed twice independently — in the PR 3 GC sweep and again in
the PR 5 watch consume (where it livelocked the lock recipe under
cache + distributor) — which is precisely why it is now a machine rule.

The protocol: every ``Remove`` of an ``inst.*`` attribute on
``fk-system-watches`` must be conditioned on the instance still matching
the observed snapshot — id **and** session list
(:meth:`WatchRegistry.remove_instance` / ``consume_ops``) — and
retried from a fresh read on conflict.  Statically we flag any
``update_item`` on the watch table whose updates contain a ``Remove`` of
an instance attribute without a ``condition=``; the ``FK_SANITIZE=1``
runtime assertion covers call sites this cannot see.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..core import Checker, Finding, LintContext, register
from .common import call_arg, call_kwarg, table_name_of

WATCH_TABLE = "fk-system-watches"


def _is_instance_remove(node: ast.expr) -> bool:
    """``Remove("inst...")`` (or dotted ``expressions.Remove``)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else \
        func.id if isinstance(func, ast.Name) else None
    if name != "Remove":
        return False
    if not node.args:
        return True  # malformed Remove: flag conservatively
    arg = node.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value.startswith("inst")
    # f-string / computed attribute path: assume it targets an instance.
    return True


@register
class WatchGuardChecker(Checker):
    rule = "FK003"
    name = "watch-guard"
    description = ("watch-instance Remove without the id+session-list "
                   "guard (silently unsubscribes racing sessions)")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or \
                    not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr == "update_item":
                table = table_name_of(call_arg(node, 1, "table_name"))
                if table != WATCH_TABLE:
                    continue
                updates = call_arg(node, 3, "updates")
                if not isinstance(updates, (ast.List, ast.Tuple)):
                    continue
                removes = [u for u in updates.elts if _is_instance_remove(u)]
                if removes and call_kwarg(node, "condition") is None:
                    findings.append(ctx.finding(
                        self.rule, removes[0],
                        "unguarded Remove of a watch instance: condition "
                        "the update on the observed instance id AND "
                        "session list (guarded-removal protocol, cf. "
                        "WatchRegistry.remove_instance) and retry from a "
                        "fresh read on ConditionFailed"))
            elif node.func.attr == "transact_update":
                # Same discipline inside storage transactions: each op is
                # (table, key, updates, condition) — a watch-instance
                # Remove op must carry a non-None condition.
                ops = call_arg(node, 1, "ops")
                if not isinstance(ops, (ast.List, ast.Tuple)):
                    continue
                for op in ops.elts:
                    if not isinstance(op, (ast.Tuple, ast.List)) or \
                            len(op.elts) != 4:
                        continue
                    table = table_name_of(op.elts[0])
                    if table != WATCH_TABLE:
                        continue
                    updates = op.elts[2]
                    if not isinstance(updates, (ast.List, ast.Tuple)):
                        continue
                    cond = op.elts[3]
                    has_guard = not (isinstance(cond, ast.Constant)
                                     and cond.value is None)
                    if not has_guard and any(_is_instance_remove(u)
                                             for u in updates.elts):
                        findings.append(ctx.finding(
                            self.rule, op,
                            "unguarded watch-instance Remove inside a "
                            "transact_update op: pin the observed id and "
                            "session list in the op's condition"))
        return findings
