"""``python -m repro.fklint`` — the command-line driver.

Exit status: 0 clean, 1 findings, 2 usage/IO error (argparse semantics).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core import lint_paths

__all__ = ["PATHS", "main"]

#: What the repository lints, relative to its root: the default paths,
#: and the tree ``test_repo_lints_clean`` holds to zero findings.
PATHS = ("src", "examples", "benchmarks", "tests/helpers")


def _plural(n: int, noun: str) -> str:
    return f"{n} {noun}{'s' if n != 1 else ''}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fklint",
        description="Domain-aware static analysis for the FaaSKeeper "
                    "reproduction.")
    parser.add_argument("paths", nargs="*", default=list(PATHS),
                        help=f"files or directories to lint (default: "
                             f"{' '.join(PATHS)})")
    args = parser.parse_args(argv)
    try:
        findings, nfiles = lint_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"fklint: error: {exc}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.format())
    files = _plural(nfiles, "file")
    print(f"found {_plural(len(findings), 'problem')} in {files}" if findings
          else f"checked {files}: all clean")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
