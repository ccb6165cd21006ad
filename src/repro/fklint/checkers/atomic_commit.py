"""FK002 — atomic-commit discipline on the commit-log system table.

The durability and event-streaming guarantees (PR 6/PR 7) hinge on one
property: a committed transaction's one record — its replication writes
and the session/timestamp its outgoing events are projected from — and
its per-shard head watermark are written in a **single conditional
``transact_update``** (``SnapshotManager.append_log``).  A direct
``put_item``/``update_item`` on ``fk-system-log`` bypasses that
transaction — a crash between two plain writes leaves a record the head
does not cover (or a head without its record), exactly the torn state
every cursor's floor exists to rule out.  Deletes are legitimate only for
compaction and must be **conditional** (the cut is clamped to the slowest
cursor: snapshot floor, every region's watermark, the outbox's published
mark), so an unconditional ``delete_item`` is flagged too.

The rule also keeps non-core code honest: any mutation of *any*
``fk-system-*`` table from ``examples/`` or ``benchmarks/`` is flagged —
system tables belong to the pipeline functions, and artifacts that poke
them are measuring a deployment that cannot exist.

The runtime half of this rule lives in :mod:`repro.fklint.sanitize`
(armed by ``FK_SANITIZE=1``), which catches dynamically-computed table
names this static check cannot resolve and owns the table's one
definition.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..core import Checker, Finding, LintContext, register
from ..sanitize import APPEND_ONLY_TABLE
from .common import call_arg, call_kwarg, table_name_of

MUTATORS = {"put_item": 2, "update_item": 2, "delete_item": 2}


@register
class AtomicCommitChecker(Checker):
    rule = "FK002"
    name = "atomic-commit"
    description = ("direct write to fk-system-log outside the commit "
                   "transact_update (torn commit/event state)")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        outside_core = not ctx.in_dir("repro", "faaskeeper")
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or \
                    not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            if method not in MUTATORS:
                continue
            # Signature: (ctx, table_name, key, ...) on the store facade.
            table = table_name_of(call_arg(node, 1, "table_name"))
            if table is None:
                continue
            if table == APPEND_ONLY_TABLE:
                if method in ("put_item", "update_item"):
                    findings.append(ctx.finding(
                        self.rule, node,
                        f"direct `{method}` on `{table}`: commit "
                        "records must be appended inside the commit's "
                        "conditional transact_update "
                        "(SnapshotManager.append_log)"))
                elif call_kwarg(node, "condition") is None:
                    findings.append(ctx.finding(
                        self.rule, node,
                        f"unconditional `delete_item` on `{table}`: "
                        "compaction deletes must be guarded by a "
                        "condition"))
            elif outside_core and table.startswith("fk-system-"):
                findings.append(ctx.finding(
                    self.rule, node,
                    f"`{method}` on system table `{table}` outside the "
                    "faaskeeper core: system tables are owned by the "
                    "pipeline functions"))
        return findings
