"""Shared AST utilities for the domain checkers."""

from __future__ import annotations

import ast
from typing import Dict, Optional

__all__ = ["ImportMap", "dotted_name", "resolve_call_name",
           "table_name_of", "call_kwarg", "call_arg"]

#: System-table constant names -> the table-name strings they hold
#: (mirrors ``repro.faaskeeper.layout``; kept literal so the linter does
#: not import the code under analysis).
TABLE_CONSTANTS: Dict[str, str] = {
    "SYSTEM_NODES": "fk-system-nodes",
    "SYSTEM_STATE": "fk-system-state",
    "SYSTEM_SESSIONS": "fk-system-sessions",
    "SYSTEM_WATCHES": "fk-system-watches",
    "SYSTEM_LOG": "fk-system-log",
    "SYSTEM_SNAPSHOT": "fk-system-snapshot",
    "USER_TABLE": "fk-user-nodes",
}


class ImportMap(ast.NodeVisitor):
    """Resolve local names to fully-qualified module paths.

    ``import time as t`` maps ``t -> time``; ``from datetime import
    datetime as dt`` maps ``dt -> datetime.datetime``.  Only top-level
    and function-local imports of *absolute* modules are tracked — which
    covers how stdlib clock/RNG modules are actually imported.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.aliases: Dict[str, str] = {}
        self.visit(tree)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = \
                alias.name if alias.asname else alias.name.split(".")[0]

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or not node.module:
            return  # relative import: project-internal, never stdlib
        for alias in node.names:
            if alias.name == "*":
                continue
            self.aliases[alias.asname or alias.name] = \
                f"{node.module}.{alias.name}"

    def expand(self, dotted: str) -> str:
        """Rewrite the leading component through the alias map."""
        head, _, rest = dotted.partition(".")
        expanded = self.aliases.get(head, head)
        return f"{expanded}.{rest}" if rest else expanded


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_call_name(call: ast.Call, imports: ImportMap) -> Optional[str]:
    """Fully-qualified dotted name of a call target, alias-expanded."""
    name = dotted_name(call.func)
    if name is None:
        return None
    return imports.expand(name)


def call_kwarg(call: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def call_arg(call: ast.Call, index: int, name: str) -> Optional[ast.expr]:
    """Positional-or-keyword argument lookup."""
    kw = call_kwarg(call, name)
    if kw is not None:
        return kw
    if len(call.args) > index:
        return call.args[index]
    return None


def table_name_of(node: Optional[ast.expr]) -> Optional[str]:
    """Best-effort resolution of a kvstore table argument to its string.

    Handles string literals, the layout-module constants (``SYSTEM_LOG``)
    and attribute access on them (``layout.SYSTEM_LOG``).  Anything
    dynamic resolves to None — the runtime sanitizer covers those.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    name = dotted_name(node)
    if name is None:
        return None
    return TABLE_CONSTANTS.get(name.rsplit(".", 1)[-1])
