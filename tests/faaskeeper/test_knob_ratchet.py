"""Ratchet on the deployment's option surface: it may only shrink.

ROADMAP aim 2 ("same numbers, least machinery") counts config fields and
``FK_*`` environment switches.  These ceilings are the counts the tree
holds today; a PR that removes a knob lowers the number here, and nothing
may raise it.
"""

import dataclasses
import re
from pathlib import Path

import repro
from repro.faaskeeper import FaaSKeeperConfig

MAX_CONFIG_FIELDS = 43
MAX_ENV_SWITCHES = 3


def test_config_field_count_only_goes_down():
    assert len(dataclasses.fields(FaaSKeeperConfig)) <= MAX_CONFIG_FIELDS


def test_env_switch_count_only_goes_down():
    src = Path(repro.__file__).parent
    names = {name for path in src.rglob("*.py")
             for name in re.findall(r"\bFK_[A-Z][A-Z_]*\b", path.read_text())}
    assert len(names) <= MAX_ENV_SWITCHES, sorted(names)
