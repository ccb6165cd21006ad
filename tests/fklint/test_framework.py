"""Framework-level self-tests: registry, suppressions, parse errors,
selection, path walking, and the repo-wide self-lint gate."""

from pathlib import Path

from repro.fklint import all_checkers, lint_file, lint_paths, lint_source
from repro.fklint.core import PARSE_ERROR_RULE, find_project_root

REPO_ROOT = Path(__file__).resolve().parents[2]

SLEEPER = ("import time\n"
           "time.sleep(1)\n")
SCOPE = "src/repro/faaskeeper/leader.py"


# ------------------------------------------------------------ registry
def test_all_eight_rules_are_registered():
    rules = [cls.rule for cls in all_checkers()]
    assert rules == ["FK001", "FK002", "FK003", "FK004", "FK005", "FK006",
                     "FK007", "FK008"]


def test_every_checker_has_name_and_description():
    for cls in all_checkers():
        assert cls.name and cls.description


# -------------------------------------------------------- suppressions
def test_line_suppression_silences_only_that_line():
    source = ("import time\n"
              "time.sleep(1)  # fklint: disable=FK001\n"
              "time.sleep(2)\n")
    findings = lint_source(source, scope_path=SCOPE)
    assert [(f.rule, f.line) for f in findings] == [("FK001", 3)]


def test_file_suppression_silences_whole_file():
    source = ("# fklint: disable-file=FK001\n" + SLEEPER)
    assert lint_source(source, scope_path=SCOPE) == []


def test_suppression_of_other_rule_does_not_silence():
    source = ("import time\n"
              "time.sleep(1)  # fklint: disable=FK002\n")
    assert [f.rule for f in lint_source(source, scope_path=SCOPE)] == ["FK001"]


def test_all_wildcard_suppresses_everything():
    source = ("# fklint: disable-file=all\n" + SLEEPER)
    assert lint_source(source, scope_path=SCOPE) == []


def test_multi_rule_suppression_comment():
    source = ("import time\n"
              "time.sleep(1)  # fklint: disable=FK001, FK005\n")
    assert lint_source(source, scope_path=SCOPE) == []


# -------------------------------------------------------- parse errors
def test_syntax_error_reports_fk000():
    findings = lint_source("def broken(:\n", scope_path=SCOPE)
    assert [f.rule for f in findings] == [PARSE_ERROR_RULE]
    assert findings[0].line == 1


# ------------------------------------------------------------ selection
def test_select_by_rule_id_and_by_name():
    by_id = lint_source(SLEEPER, scope_path=SCOPE, select=["FK001"])
    by_name = lint_source(SLEEPER, scope_path=SCOPE, select=["determinism"])
    assert [f.rule for f in by_id] == ["FK001"]
    assert [(f.rule, f.line) for f in by_name] == \
        [(f.rule, f.line) for f in by_id]


def test_select_excludes_other_rules():
    assert lint_source(SLEEPER, scope_path=SCOPE, select=["FK006"]) == []


# ------------------------------------------------------------- findings
def test_finding_format_and_dict_round_trip():
    (finding,) = lint_source(SLEEPER, path="x.py", scope_path=SCOPE)
    assert finding.format().startswith("x.py:2:1: FK001 ")
    assert finding.to_dict()["rule"] == "FK001"
    assert finding.to_dict()["line"] == 2


# ---------------------------------------------------------- path driver
def test_lint_file_and_paths_on_disk(tmp_path):
    bad = tmp_path / "src" / "repro" / "faaskeeper" / "leader.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(SLEEPER)
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    (tmp_path / "src" / "repro" / "faaskeeper" / "__pycache__").mkdir()
    (tmp_path / "src" / "repro" / "faaskeeper" / "__pycache__" /
     "junk.py").write_text("time.sleep(")

    assert find_project_root(bad) == tmp_path
    assert [f.rule for f in lint_file(str(bad))] == ["FK001"]

    findings, nfiles = lint_paths([str(tmp_path / "src")])
    assert nfiles == 1  # __pycache__ skipped
    assert [f.rule for f in findings] == ["FK001"]


# ------------------------------------------------------- self-lint gate
def test_repo_lints_clean():
    """The acceptance gate: the shipped tree has zero findings."""
    paths = [str(REPO_ROOT / d) for d in ("src", "examples", "benchmarks")]
    findings, nfiles = lint_paths(paths)
    assert nfiles > 100
    assert findings == [], "\n".join(f.format() for f in findings)
