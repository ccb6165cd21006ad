"""fklint core: findings, the per-file context, the lint loop.

``fklint`` is a *domain-aware* static analyser: its rules are not generic
style checks but machine-enforced versions of disciplines no test would
notice breaking (see the package docstring for the rule list).

* :class:`Finding` — one diagnostic (rule id, message, file, line, col);
* :class:`LintContext` — what a checker may look at: the parsed AST and
  the file's posix path, which rule scoping predicates match against;
* a checker is a function ``check(ctx) -> Iterable[Finding]`` that scopes
  itself; :data:`repro.fklint.checkers.CHECKERS` lists them.  There are
  no suppressions: no rule has a sanctioned exception, so a finding is
  fixed in the code.

Each file is parsed once and the same tree handed to every checker.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

__all__ = ["Finding", "LintContext", "lint_source", "lint_file",
           "lint_paths", "iter_python_files", "PARSE_ERROR_RULE"]

#: Pseudo-rule reported when a file does not parse at all.
PARSE_ERROR_RULE = "FK000"


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic, ordered for stable reports."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class LintContext:
    """Per-file lint state shared by every checker."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        #: Posix form of the linted path — what scoping predicates match.
        self.path = path.replace("\\", "/")
        self.tree = tree

    def in_dir(self, *parts: str) -> bool:
        """True when the file lives under a ``/``-joined directory chain
        anywhere in its path (``in_dir("repro", "faaskeeper")``)."""
        return "/" + "/".join(parts) + "/" in "/" + self.path

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(path=self.path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       rule=rule, message=message)


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one source blob; ``path`` also decides which rules apply
    (tests pass e.g. ``src/repro/faaskeeper/leader.py``)."""
    from .checkers import CHECKERS  # (they import this module)

    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Finding(path=path, line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1, rule=PARSE_ERROR_RULE,
                        message=f"file does not parse: {exc.msg}")]
    ctx = LintContext(path, tree)
    return sorted(f for check in CHECKERS for f in check(ctx))


def lint_file(path: str) -> List[Finding]:
    try:
        source = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [Finding(path=path, line=1, col=1, rule=PARSE_ERROR_RULE,
                        message=f"cannot read file: {exc}")]
    return lint_source(source, path)


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files,
    skipping caches, hidden directories and build output."""
    out: List[str] = []
    skip_dirs = {"__pycache__", "build", "dist"}
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            out.append(str(p))
            continue
        if not p.is_dir():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        out.extend(str(sub) for sub in sorted(p.rglob("*.py"))
                   if not any(part in skip_dirs or part.startswith(".")
                              for part in sub.relative_to(p).parts))
    return out


def lint_paths(paths: Sequence[str]) -> Tuple[List[Finding], int]:
    """Lint files/directories; returns (findings, files checked)."""
    files = iter_python_files(paths)
    return sorted(f for path in files for f in lint_file(path)), len(files)
