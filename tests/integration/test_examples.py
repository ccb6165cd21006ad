"""Smoke tests: every example script must run to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def _run_example(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=300, env=env,
    )


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    result = _run_example(script)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout  # every example prints its findings


def test_leader_election_output_unchanged_atop_election_recipe():
    """The example was rewritten on recipes.Election; its observable
    behaviour — who leads, who takes over, who survives — must be exactly
    the hand-rolled original's."""
    result = _run_example(REPO_ROOT / "examples" / "leader_election.py")
    assert result.returncode == 0, result.stderr[-2000:]
    out = result.stdout
    assert "node-0: I am the leader (candidate-0000000000)" in out
    assert "node-1: standing by, watching /election/candidate-0000000000" in out
    assert "node-2: standing by, watching /election/candidate-0000000001" in out
    assert "elected: node-0" in out
    assert "node-1: I am the leader (candidate-0000000001)" in out
    assert "took over: node-1" in out
    assert ("remaining candidates: "
            "['candidate-0000000001', 'candidate-0000000002']") in out


def test_distributed_queue_output_unchanged_atop_queue_recipe():
    """The example was rewritten on recipes.Queue; the claim distribution
    and the exactly-once outcome must match the hand-rolled original."""
    result = _run_example(REPO_ROOT / "examples" / "distributed_queue.py")
    assert result.returncode == 0, result.stderr[-2000:]
    out = result.stdout
    assert "enqueued: 10 tasks" in out
    assert ("claims per worker: "
            "{'worker-0': 4, 'worker-1': 3, 'worker-2': 3}") in out
    assert "every task processed exactly once ✓" in out


def test_config_service_uses_watch_decorators():
    """The example was rewritten on DataWatch/ChildrenWatch; the fan-out
    and failure-detection outcomes must match the hand-rolled original."""
    result = _run_example(REPO_ROOT / "examples" / "config_service.py")
    assert result.returncode == 0, result.stderr[-2000:]
    out = result.stdout
    assert "registered: ['rs-0', 'rs-1', 'rs-2', 'rs-3']" in out
    assert "all region servers picked up flush_interval=30" in out
    assert ("after failure: ['rs-0', 'rs-1', 'rs-3'] "
            "(1 membership notification)") in out


def test_change_data_capture_streams_every_commit_in_order():
    """The outbox example's CDC feed must list every committed change —
    including the delete — exactly once, in txid order, and report its
    publish lag."""
    script = REPO_ROOT / "examples" / "change_data_capture.py"
    assert script in EXAMPLES
    result = _run_example(script)
    assert result.returncode == 0, result.stderr[-2000:]
    out = result.stdout
    for line in ("txid=  1  create     /cluster",
                 "txid=  3  set_data   /cluster/config",
                 "txid=  5  delete     /cluster/feature-x"):
        assert line in out
    assert "5 commits logged, 5 events delivered" in out


def test_transactional_config_demonstrates_atomicity():
    """The transaction() example must show both sides of atomicity: a
    committed swap (with a single watch notification) and a conflicting
    deploy rolled back wholesale."""
    script = REPO_ROOT / "examples" / "transactional_config.py"
    assert script in EXAMPLES
    result = _run_example(script)
    assert result.returncode == 0, result.stderr[-2000:]
    assert "committed atomically" in result.stdout
    assert "watch fired once" in result.stdout
    assert "rolled back: BadVersionError, RolledBackError" in result.stdout
