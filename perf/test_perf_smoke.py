"""Smoke test of the benchmark itself: ``PYTHONPATH=src python -m pytest perf -q``.

Not collected by the tier-1 suite (``testpaths`` is ``tests``).  One ``--smoke``
ledger run (1/20 size, traced runs included) feeds most of the checks.
"""

import ast
import copy
import glob
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perf import compare, spec
from perf.workloads import LAYERS, WORKLOADS

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(PERF_DIR, "run.py")


@pytest.fixture(scope="module")
def benchmark_json():
    return spec.load_benchmark()


@pytest.fixture(scope="module")
def ledger():
    proc = subprocess.run([sys.executable, RUN, "--smoke"], cwd=spec.ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    path = re.search(r"^wrote (\S+)$", proc.stdout, re.M).group(1)
    with open(os.path.join(spec.ROOT, path)) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code(benchmark_json):
    assert benchmark_json["paths"] == ["perf"]
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in
             benchmark_json["end_to_end"] + benchmark_json["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert "setup_s" in names
    for layer in LAYERS:
        assert f"{layer}.wall_share" in names and f"{layer}.calls_per_op" in names


def test_every_declared_metric_on_exactly_its_workloads(ledger, benchmark_json):
    end_to_end = {m["name"] for m in benchmark_json["end_to_end"]}
    per_layer = {m["name"] for m in benchmark_json["per_layer"]}
    assert set(ledger["workloads"]) == set(WORKLOADS)
    for workload, entry in ledger["workloads"].items():
        assert not entry["failures"] and entry["failed_share"] == 0, entry
        # End-to-end metrics exist on every workload and are never 0.
        assert set(entry["end_to_end"]) == end_to_end, workload
        assert all(s["median"] > 0 for s in entry["end_to_end"].values())
        emitted = set(entry["per_layer"])
        assert emitted <= per_layer, (workload, emitted - per_layer)
        expected = {m for m in per_layer if spec.applies_to(m, workload)}
        if not entry["per_layer"]["faaskeeper.heartbeat.sweeps"]:
            # At 1/20 size the measured phase can be shorter than a heartbeat
            # period: no sweep, so nothing to average.
            expected -= {m for m in per_layer if re.fullmatch(
                r"faaskeeper\.heartbeat\.(\w+_ms|pings_per_sweep)", m)}
        assert emitted == expected, (workload, emitted ^ expected)


def test_layer_shares_sum_to_one(ledger):
    for workload, entry in ledger["workloads"].items():
        shares = {name: value for name, value in entry["per_layer"].items()
                  if name.endswith(".wall_share")}
        assert abs(sum(shares.values()) - 1.0) <= 0.01, (workload, shares)
        assert entry["per_layer"]["trace_overhead_x"] > 1.0
    assert ledger["claim"] is None and list(ledger)[-1] == "claim"


def test_cost_categories_sum_to_usd_per_kop(ledger):
    for workload, entry in ledger["workloads"].items():
        parts = sum(value for name, value in entry["per_layer"].items()
                    if name.startswith("cloud.pricing."))
        total = entry["end_to_end"]["usd_per_kop"]["median"]
        assert parts == pytest.approx(total, rel=1e-9), workload


def test_compare_agrees_with_itself_and_flags_a_regression(ledger, benchmark_json):
    lines, regressed = compare.compare(ledger, ledger, benchmark_json)
    assert regressed == 0
    assert sum(line.startswith("virtual_identical: yes") for line in lines) == 5
    slower = copy.deepcopy(ledger)
    stats = slower["workloads"]["paper-rw"]["end_to_end"]["wall_ops_per_s"]
    for key in ("median", "q1", "q3"):
        stats[key] /= 2
    slower["workloads"]["paper-rw"]["per_layer"]["cloud.kvstore.reads_per_op"] += 1
    lines, regressed = compare.compare(ledger, slower, benchmark_json)
    assert regressed == 1
    assert any(line.startswith("virtual_identical: no paper-rw") for line in lines)


def test_no_private_attribute_of_the_simulator_is_touched():
    """Every number is taken from outside: the only ``_name`` attributes the
    benchmark may read are its own, through ``self``."""
    for path in glob.glob(os.path.join(PERF_DIR, "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                owner = node.value
                assert isinstance(owner, ast.Name) and owner.id == "self", (
                    f"{path}:{node.lineno} reads .{node.attr}")


def test_contract_run_fails_cleanly_without_the_simulator(tmp_path):
    """In a directory holding only BENCHMARK.json and perf/ there is nothing
    to measure: exit non-zero and print no result."""
    shutil.copy(os.path.join(spec.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF_DIR, tmp_path / "perf", ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "paper-rw", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
