"""CLI self-tests: exit codes and the report."""

import pytest

from repro.fklint.cli import main

BAD = ("import time\n"
       "time.sleep(1)\n")
GOOD = "X = 1\n"


@pytest.fixture
def tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "faaskeeper"
    pkg.mkdir(parents=True)
    (pkg / "leader.py").write_text(BAD)
    (pkg / "model.py").write_text(GOOD)
    return tmp_path


def test_exit_zero_on_clean_tree(tree, capsys):
    assert main([str(tree / "src" / "repro" / "faaskeeper" / "model.py")]) == 0
    assert "all clean" in capsys.readouterr().out


def test_exit_one_with_findings(tree, capsys):
    assert main([str(tree / "src")]) == 1
    out = capsys.readouterr().out
    assert "FK001" in out and "leader.py:2:1" in out
    assert "found 1 problem in 2 files" in out


def test_exit_two_on_missing_path(capsys):
    assert main(["/no/such/dir-fklint"]) == 2
    assert "error" in capsys.readouterr().err
