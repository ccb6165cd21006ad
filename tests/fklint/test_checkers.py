"""Per-rule self-tests: every FK rule has at least one fixture it flags
(with exact rule ids *and* line numbers, via ``# expect:`` markers) and
one good twin it passes."""

import pytest

from repro.fklint import lint_source

from . import fixtures

FAASKEEPER = "src/repro/faaskeeper"


def found(source, scope_path, select, readme_text=None):
    return sorted(
        (f.rule, f.line)
        for f in lint_source(source, path="<fixture>", scope_path=scope_path,
                             readme_text=readme_text, select=select))


BAD_CASES = [
    pytest.param(fixtures.FK001_BAD, f"{FAASKEEPER}/leader.py",
                 ["FK001"], None, id="FK001-core"),
    pytest.param(fixtures.FK001_BAD, "benchmarks/bench_x.py",
                 ["FK001"], None, id="FK001-benchmark"),
    pytest.param(fixtures.FK001_BAD, "examples/demo.py",
                 ["FK001"], None, id="FK001-example"),
    pytest.param(fixtures.FK002_BAD, f"{FAASKEEPER}/snapshot.py",
                 ["FK002"], None, id="FK002-core"),
    pytest.param(fixtures.FK002_BAD_EXAMPLE, "examples/demo.py",
                 ["FK002"], None, id="FK002-example"),
    pytest.param(fixtures.FK003_BAD, f"{FAASKEEPER}/watches.py",
                 ["FK003"], None, id="FK003"),
    pytest.param(fixtures.FK004_BAD, f"{FAASKEEPER}/watch_fn.py",
                 ["FK004"], None, id="FK004"),
    pytest.param(fixtures.FK005_BAD, f"{FAASKEEPER}/recipes/lock.py",
                 ["FK005"], None, id="FK005"),
    pytest.param(fixtures.FK006_BAD, f"{FAASKEEPER}/config.py",
                 ["FK006"], fixtures.FK006_README, id="FK006"),
    pytest.param(fixtures.FK007_BAD, f"{FAASKEEPER}/heartbeat.py",
                 ["FK007"], None, id="FK007"),
    pytest.param(fixtures.FK008_BAD, f"{FAASKEEPER}/userstore.py",
                 ["FK008"], None, id="FK008-faaskeeper"),
    pytest.param(fixtures.FK008_BAD, "src/repro/cloud/objectstore.py",
                 ["FK008"], None, id="FK008-cloud"),
    pytest.param(fixtures.FK008_CLONE, "src/repro/cloud/expressions.py",
                 ["FK008"], None, id="FK008-clone-fallback"),
]

GOOD_CASES = [
    pytest.param(fixtures.FK001_GOOD, f"{FAASKEEPER}/leader.py",
                 ["FK001"], None, id="FK001"),
    pytest.param(fixtures.FK002_GOOD, f"{FAASKEEPER}/snapshot.py",
                 ["FK002"], None, id="FK002"),
    pytest.param(fixtures.FK003_GOOD, f"{FAASKEEPER}/watches.py",
                 ["FK003"], None, id="FK003"),
    pytest.param(fixtures.FK004_GOOD, f"{FAASKEEPER}/leader.py",
                 ["FK004"], None, id="FK004"),
    pytest.param(fixtures.FK005_GOOD, f"{FAASKEEPER}/recipes/lock.py",
                 ["FK005"], None, id="FK005"),
    pytest.param(fixtures.FK006_GOOD, f"{FAASKEEPER}/config.py",
                 ["FK006"], fixtures.FK006_README, id="FK006"),
    pytest.param(fixtures.FK007_GOOD, f"{FAASKEEPER}/heartbeat.py",
                 ["FK007"], None, id="FK007"),
    pytest.param(fixtures.FK008_GOOD, "src/repro/cloud/cache.py",
                 ["FK008"], None, id="FK008"),
]


@pytest.mark.parametrize("source, scope, select, readme", BAD_CASES)
def test_bad_fixture_flags_expected_lines(source, scope, select, readme):
    expected = fixtures.expected_findings(source)
    assert expected, "bad fixture must declare # expect: markers"
    assert found(source, scope, select, readme) == expected


@pytest.mark.parametrize("source, scope, select, readme", GOOD_CASES)
def test_good_fixture_is_clean(source, scope, select, readme):
    assert found(source, scope, select, readme) == []


# ------------------------------------------------------------- scoping
def test_fk001_does_not_apply_outside_scoped_trees():
    # The sim kernel itself (and tests) may read wall time.
    assert found(fixtures.FK001_BAD, "src/repro/sim/kernel.py",
                 ["FK001"]) == []


def test_fk004_only_applies_to_handler_modules():
    # Module-level registries are fine outside the handler modules.
    assert found(fixtures.FK004_BAD, "src/repro/faaskeeper/model.py",
                 ["FK004"]) == []


def test_fk006_readme_check_skipped_without_readme_text():
    results = found(fixtures.FK006_BAD, "src/repro/faaskeeper/config.py",
                    ["FK006"], readme_text=None)
    # Structural findings (missing default, missing annotation) remain.
    assert results == [("FK006", 4), ("FK006", 5)]


def test_fk007_only_applies_to_handler_modules():
    # Backends and the deployment wiring own the raw clients by design.
    assert found(fixtures.FK007_BAD, "src/repro/faaskeeper/userstore.py",
                 ["FK007"]) == []
    assert found(fixtures.FK007_BAD, "src/repro/faaskeeper/service.py",
                 ["FK007"]) == []


def test_fk008_scope_and_the_clone_exemption():
    # Only the storage boundary is held to the discipline ...
    assert found(fixtures.FK008_BAD, "src/repro/analysis/bench.py",
                 ["FK008"]) == []
    assert found(fixtures.FK008_BAD, "benchmarks/bench_x.py",
                 ["FK008"]) == []
    # ... and the fallback is exempt in cloud/expressions.py alone.
    assert found(fixtures.FK008_CLONE, f"{FAASKEEPER}/userstore.py",
                 ["FK008"]) == [("FK008", 6), ("FK008", 9)]


def test_fk001_seeded_random_is_allowed():
    assert found("import random\nrng = random.Random(7)\n",
                 "src/repro/faaskeeper/chaos.py", ["FK001"]) == []


def test_fk001_sees_through_aliases():
    source = "from time import time as wall\nx = wall()\n"
    assert found(source, "src/repro/faaskeeper/leader.py",
                 ["FK001"]) == [("FK001", 2)]
