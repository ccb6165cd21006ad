"""Per-rule self-tests: every FK rule has at least one fixture it flags
(with exact rule ids *and* line numbers, via ``# expect:`` markers) and
one good twin it passes."""

import pytest

from repro.fklint import lint_source

from . import fixtures

FAASKEEPER = "src/repro/faaskeeper"


def found(source, path, rule):
    return sorted((f.rule, f.line) for f in lint_source(source, path)
                  if f.rule == rule)


BAD_CASES = [
    pytest.param(fixtures.FK001_BAD, f"{FAASKEEPER}/leader.py",
                 "FK001", id="FK001-core"),
    pytest.param(fixtures.FK001_BAD, "benchmarks/bench_x.py",
                 "FK001", id="FK001-benchmark"),
    pytest.param(fixtures.FK001_BAD, "examples/demo.py",
                 "FK001", id="FK001-example"),
]

GOOD_CASES = [
    pytest.param(fixtures.FK001_GOOD, f"{FAASKEEPER}/leader.py",
                 "FK001", id="FK001"),
]


@pytest.mark.parametrize("source, path, rule", BAD_CASES)
def test_bad_fixture_flags_expected_lines(source, path, rule):
    expected = fixtures.expected_findings(source)
    assert expected, "bad fixture must declare # expect: markers"
    assert found(source, path, rule) == expected


@pytest.mark.parametrize("source, path, rule", GOOD_CASES)
def test_good_fixture_is_clean(source, path, rule):
    assert found(source, path, rule) == []


# ------------------------------------------------------------- scoping
def test_fk001_does_not_apply_outside_scoped_trees():
    # The sim kernel itself (and tests) may read wall time.
    assert found(fixtures.FK001_BAD, "src/repro/sim/kernel.py", "FK001") == []


def test_fk001_seeded_random_is_allowed():
    assert found("import random\nrng = random.Random(7)\n",
                 "src/repro/faaskeeper/chaos.py", "FK001") == []


def test_fk001_sees_through_aliases():
    source = "from time import time as wall\nx = wall()\n"
    assert found(source, "src/repro/faaskeeper/leader.py",
                 "FK001") == [("FK001", 2)]
