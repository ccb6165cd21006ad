"""Framework-level self-tests: parse errors, findings, path walking, and
the repo-wide self-lint gate."""

from pathlib import Path

from repro.fklint import lint_file, lint_paths, lint_source
from repro.fklint.cli import PATHS
from repro.fklint.core import PARSE_ERROR_RULE

REPO_ROOT = Path(__file__).resolve().parents[2]

SLEEPER = ("import time\n"
           "time.sleep(1)\n")
SCOPE = "src/repro/faaskeeper/leader.py"


# -------------------------------------------------------- parse errors
def test_syntax_error_reports_fk000():
    findings = lint_source("def broken(:\n", SCOPE)
    assert [f.rule for f in findings] == [PARSE_ERROR_RULE]
    assert findings[0].line == 1


# ------------------------------------------------------------- findings
def test_finding_format():
    (finding,) = lint_source(SLEEPER, SCOPE)
    assert finding.format().startswith(f"{SCOPE}:2:1: FK001 ")


# ---------------------------------------------------------- path driver
def test_lint_file_and_paths_on_disk(tmp_path):
    bad = tmp_path / "src" / "repro" / "faaskeeper" / "leader.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(SLEEPER)
    (tmp_path / "src" / "repro" / "faaskeeper" / "__pycache__").mkdir()
    (tmp_path / "src" / "repro" / "faaskeeper" / "__pycache__" /
     "junk.py").write_text("time.sleep(")

    assert [f.rule for f in lint_file(str(bad))] == ["FK001"]

    findings, nfiles = lint_paths([str(tmp_path / "src")])
    assert nfiles == 1  # __pycache__ skipped
    assert [f.rule for f in findings] == ["FK001"]


# ------------------------------------------------------- self-lint gate
def test_repo_lints_clean():
    """The acceptance gate: the shipped tree has zero findings over the
    paths ``python -m repro.fklint`` lints by default (CI's lint step)."""
    findings, nfiles = lint_paths([str(REPO_ROOT / p) for p in PATHS])
    assert nfiles > 100
    assert findings == [], "\n".join(f.format() for f in findings)
