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

# --------------------------------------------------------------- FK002
FK002_BAD = """\
from repro.faaskeeper.layout import SYSTEM_LOG

def sloppy(store, ctx):
    yield from store.put_item(ctx, "fk-system-log", "txid-7", {})      # expect: FK002
    yield from store.update_item(ctx, SYSTEM_LOG, "head", [])          # expect: FK002
    yield from store.delete_item(ctx, "fk-system-log", "txid-1")       # expect: FK002
"""

FK002_GOOD = """\
def disciplined(store, ctx, cond, floor_cond):
    yield from store.transact_update(ctx, [
        ("fk-system-log", "txid-7", [], cond),
        ("fk-system-state", "log:head", [], cond),
    ])
    yield from store.delete_item(ctx, "fk-system-log", "txid-1",
                                 condition=floor_cond)
    yield from store.put_item(ctx, "fk-user-nodes", "/a", {})
"""

#: FK002 from outside the core: any system-table mutation is flagged.
FK002_BAD_EXAMPLE = """\
def demo(store, ctx):
    yield from store.put_item(ctx, "fk-system-state", "epoch", {})  # expect: FK002
"""

# --------------------------------------------------------------- FK003
FK003_BAD = """\
from repro.cloud.expressions import Remove

def sweep(store, ctx, path):
    yield from store.update_item(
        ctx, "fk-system-watches", path,
        [Remove("inst.exists")])  # expect: FK003
    yield from store.transact_update(ctx, [
        ("fk-system-watches", path, [Remove("inst.data")], None),  # expect: FK003
    ])
"""

FK003_GOOD = """\
from repro.cloud.expressions import Remove

def guarded(store, ctx, path, guard):
    yield from store.update_item(
        ctx, "fk-system-watches", path,
        [Remove("inst.exists")], condition=guard)
    yield from store.update_item(
        ctx, "fk-system-watches", path,
        [Remove("pending")])
    yield from store.update_item(
        ctx, "fk-user-nodes", path,
        [Remove("inst.exists")])
"""

# --------------------------------------------------------------- FK004
FK004_BAD = """\
from collections import defaultdict

EPOCH_CACHE = {}                      # expect: FK004
SEEN = defaultdict(int)               # expect: FK004
PENDING: list = []                    # expect: FK004

def handler(event):
    EPOCH_CACHE[event.txid] = event
"""

FK004_GOOD = """\
STAGES = ("leader", "distributor")
LIMITS = frozenset({1, 2, 3})
NAME = "leader"
__all__ = ["LeaderLogic"]

class LeaderLogic:
    def __init__(self):
        self.epoch_cache = {}

    def cold_restart(self):
        self.epoch_cache = {}
"""

# --------------------------------------------------------------- FK005
FK005_BAD = """\
import time

class Recipe:
    def co_acquire(self):
        time.sleep(0.1)                       # expect: FK005
        self.env.run(until=self.deadline)     # expect: FK005
        data = self.client.get_data(self.path)  # expect: FK005
        ok = self._run(self.co_helper())      # expect: FK005
        yield self.client.exists_async(self.path).event
        return data, ok
"""

FK005_GOOD = """\
class Recipe:
    def co_acquire(self):
        yield self.env.timeout(100.0)
        data = yield self.client.get_data_async(self.path).event
        yield from self.co_helper()
        return data

    def acquire(self):
        return self._run(self.co_acquire())
"""

# --------------------------------------------------------------- FK006
FK006_BAD = """\
class FaaSKeeperConfig:
    documented_knob: int = 1
    mystery_knob: float = 2.0     # expect: FK006 (absent from README)
    no_default_knob: int          # expect: FK006
    untyped_knob = "x86"          # expect: FK006
"""

#: README text paired with FK006_BAD: mentions every knob but
#: ``mystery_knob`` (and the structurally-broken ones, which are flagged
#: regardless of documentation).
FK006_README = """\
## Configuration reference
| `documented_knob` | 1 | a knob |
| `no_default_knob` | — | documented but lacking a default |
| `untyped_knob` | "x86" | documented but lacking an annotation |
"""

FK006_GOOD = """\
class FaaSKeeperConfig:
    documented_knob: int = 1
    _private_detail = object()
"""

# --------------------------------------------------------------- FK007
FK007_BAD = """\
class StageLogic:
    def handler(self, fctx, payload):
        kv = self.service.cloud.kv("dynamodb:system")     # expect: FK007
        obj = fctx.cloud.objectstore("s3")                # expect: FK007
        cache = self.service.cloud.cache("redis")         # expect: FK007
        yield from kv.put_item(fctx.ctx, "t", "k", {})
"""

FK007_GOOD = """\
class StageLogic:
    def handler(self, fctx, payload):
        store = self.service.system_store
        item = yield from store.get_item(fctx.ctx, "t", "k")
        yield from self.service.user_store.write_node(
            fctx.ctx, "us-east-1", "/a", item)
"""

# --------------------------------------------------------------- FK008
FK008_BAD = """\
import copy
import copy as cp
from copy import deepcopy as dc

class Backend:
    def write_node(self, path, image):
        self._data[path] = copy.deepcopy(image)           # expect: FK008
        self._log.append(cp.deepcopy(image))              # expect: FK008

    def read_all(self):
        return list(map(dc, self._data.values()))         # expect: FK008
"""

FK008_GOOD = """\
import copy
from .expressions import clone

class Backend:
    def write_node(self, path, image):
        self._data[path] = clone(image)
        self._shallow = copy.copy(self._index)

    def deepcopy(self):
        return self.deepcopy
"""

#: ``expressions.clone``'s own fallback is the one sanctioned use; the same
#: call in any other function of that file is not.
FK008_CLONE = """\
import copy

def clone(value):
    if type(value) is dict:
        return {k: clone(v) for k, v in value.items()}
    return copy.deepcopy(value)

def snapshot(value):
    return copy.deepcopy(value)                           # expect: FK008
"""
