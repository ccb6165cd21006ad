"""Good/bad source fixtures for the fklint self-tests.

Each BAD fixture carries ``# expect: FKxxx`` markers on the offending
lines; :func:`expected_findings` parses them into (rule, line) pairs so
the tests assert *exact* rule ids and line numbers, not just counts.
Each rule also has a GOOD twin exercising the sanctioned idiom, which
must produce zero findings.
"""

from __future__ import annotations

import re
from typing import List, Tuple

_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<rules>[A-Z0-9, ]+)")


def expected_findings(source: str) -> List[Tuple[str, int]]:
    """(rule, line) pairs declared by ``# expect:`` markers, sorted."""
    out: List[Tuple[str, int]] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match:
            out.extend((rule.strip(), lineno)
                       for rule in match.group("rules").split(",")
                       if rule.strip())
    return sorted(out)


# --------------------------------------------------------------- FK001
FK001_BAD = """\
import time
import random
import uuid
from datetime import datetime
from time import monotonic as mono

def handler():
    start = time.time()          # expect: FK001
    time.sleep(0.5)              # expect: FK001
    t = mono()                   # expect: FK001
    stamp = datetime.now()       # expect: FK001
    rid = uuid.uuid4()           # expect: FK001
    jitter = random.random()     # expect: FK001
    rng = random.Random()        # expect: FK001
    return start, t, stamp, rid, jitter, rng
"""

FK001_GOOD = """\
import random

def handler(env, rng_registry):
    start = env.now
    yield env.timeout(500.0)
    rng = rng_registry.stream("handler")
    seeded = random.Random(42)
    return start, rng.random(), seeded.random()
"""
