"""FK008 — copy discipline: no ``copy.deepcopy`` on the storage boundary.

The simulated stores keep immutable images: an image is structurally
cloned once on its way in and once on its way out
(:func:`repro.cloud.expressions.clone`), and is shared — never copied —
everywhere in between (table, stream record, idempotence ledger).  Before
that discipline ``copy.deepcopy`` was ~28 % of the simulator's wall time;
one convenient ``deepcopy`` on a hot path quietly brings it back, and no
test fails because the copies are semantically invisible.

The rule flags every reference to ``copy.deepcopy`` (called or passed as a
function, through any import alias) under ``src/repro/cloud/`` and
``src/repro/faaskeeper/``.  The single sanctioned use is the unknown-type
fallback inside ``expressions.clone`` itself.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from ..core import Checker, Finding, LintContext, register
from .common import ImportMap, dotted_name


@register
class CopyDisciplineChecker(Checker):
    rule = "FK008"
    name = "copy-discipline"
    description = ("copy.deepcopy on the storage boundary (images are "
                   "frozen and shared; cross the API with expressions.clone)")

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_dir("repro", "cloud") or ctx.in_dir("repro", "faaskeeper")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        imports = ImportMap(ctx.tree)
        exempt: Set[int] = set()
        if ctx.in_dir("repro", "cloud") and ctx.basename() == "expressions.py":
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.FunctionDef) and node.name == "clone":
                    exempt.update(map(id, ast.walk(node)))
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Name, ast.Attribute)) or id(node) in exempt:
                continue
            name = dotted_name(node)
            if name is not None and imports.expand(name) == "copy.deepcopy":
                findings.append(ctx.finding(
                    self.rule, node,
                    "`copy.deepcopy` on the storage boundary: stored images "
                    "are frozen and shared — cross the API with "
                    "expressions.clone, build new images copy-on-write"))
        return findings
