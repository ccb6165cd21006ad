"""Ratchet on the deployment's option surface: it may only shrink.

ROADMAP aim 2 ("same numbers, least machinery") counts config fields and
``FK_*`` environment switches, in ``src/`` and in the harness around it
(tests, benchmarks, CI).  These ceilings are the counts the tree
holds today; a PR that removes a knob lowers the number here, and nothing
may raise it.  Every knob that stays has a row in the README's
configuration reference.  The client library is held to the same aim from
the other side: it has one session pipeline, so its source may not name
anything that tells one deployment shape from another.  The service side of the
session plane likewise: one expiry path (the sweep), one watch table, one
scan path, so the names of their deleted twins stay out of ``src/``.
And the durability plane: one commit record per transaction that the
fold, the publisher and compaction read at their own cursors, so the
outbox table and the switch that pinned the log stay out too.  And the
storage boundary: one retrying proxy around both stores of every
deployment, so the switch that removed it, its hand-forwarded twins, the
second probe limiter and the knobs nothing turned stay out as well, and
no module but the backends and the wiring acquires a raw client; and one
endpoint base under every simulated store spells the fault prelude, the
postlude and the region penalty, so no store hand-rolls them and the
user-store backends reach a store only through its public calls.  And
the copy discipline: images enter the storage API through
``expressions.clone``, so ``deepcopy`` stays inside its fallback, and
leave it frozen and uncopied, so no storage read returns a ``clone``.
And the deployment: every stage is declared once, in one deploy helper,
and CI's one fault job runs every cell of the fault matrix in exactly
one leg; no tier-1 leg flips a deployment default; every CI job has a
time bound; every benchmark runs in some CI step.
And the kernel's process rule: a process is for concurrency, so no trigger
spawns an invocation it waits for at once and no stage hand-writes a
"spawn N, wait for all" where ``gather`` runs a lone member itself.  And
its sleep rule: a process that only sleeps yields the bare delay, so no
module of the package or the benchmarks yields a fresh ``Timeout`` for it,
and only the kernel moves the clock.
And determinism (FK001): every published number replays from its seed, so
the service, the cloud models, the examples and the benchmarks read no
wall clock and no process-global RNG; the linter package that once held
this one rule stays deleted.
And the feature census: a knob stays only while a paper figure, a ledger
row or a fault cell needs its non-default value (its README row says
which), so the knobs and plug-in registries that only tests set stay out.
And garbage: it is collected by the write that makes it, so no module
reads a table whole but the heartbeat sweep and recovery.
And the latency draw: the package draws one normal, inlined in
``SizeAware.sample`` and held to ``random.gauss`` by the draw-identity
test, so no module calls ``gauss``, ``normalvariate`` or
``lognormvariate``.
"""

import ast
import dataclasses
import inspect
import json
import re
from pathlib import Path

import pytest

import repro
from repro.cloud import expressions
from repro.faaskeeper import FaaSKeeperConfig, client, heartbeat

MAX_CONFIG_FIELDS = 11
MAX_ENV_SWITCHES = 1
#: Distinct ``FK_*`` names outside ``src/`` (tests, benchmarks, CI).
MAX_HARNESS_SWITCHES = 6
#: The seed and backend switches the one fault runner replaced, and the
#: two default-flipping overrides its workload column replaced, without
#: their ``FK_`` prefix (so this file does not read them either).
RETIRED_SWITCHES = ("CHAOS_SEED", "CHAOS_SEEDS", "CHAOS_BACKEND",
                    "STORAGE_FAULT_SEED", "STORAGE_FAULT_SEEDS",
                    "FORCE_OUTBOX", "STORAGE_FAULTS")
ROOT = Path(__file__).parents[2]


def test_config_field_count_only_goes_down():
    assert len(dataclasses.fields(FaaSKeeperConfig)) <= MAX_CONFIG_FIELDS


#: What may keep a knob: a paper figure, table or section, or (in
#: backticks) a ledger workload or a fault-matrix cell.  A knob no longer
#: needed names the ROADMAP item that deletes it instead.
_REFERENCE = re.compile(r"\b(?:Fig|Tab)\. \d|§\d|ROADMAP item \d")


def _needed_by(row, names):
    return bool(_REFERENCE.search(row)) or any(f"`{name}`" in row
                                               for name in names)


def test_every_knob_has_a_row_in_the_configuration_reference():
    """Each knob's row ends with what needs its non-default value."""
    from ..integration import test_faults

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {*test_faults.CELLS, *(w["name"] for w in benchmark["workloads"])}
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Configuration reference")[1].split("\n## ")[0]
    rows = {line.split("|")[1].strip(): line.split("|")[-2]
            for line in section.splitlines() if line.startswith("| `")}
    for field in dataclasses.fields(FaaSKeeperConfig):
        assert f"`{field.name}`" in rows, field.name
        assert _needed_by(rows[f"`{field.name}`"], names), field.name


def test_the_row_rule_sees_an_unjustified_knob():
    names = {"s4-leader", "scaled-rw"}
    for row in (" Fig. 9 ", " §5.3.2 ", " cell `s4-leader` ",
                " the `scaled-rw` row ", " none: ROADMAP item 10 "):
        assert _needed_by(row, names), row
    for row in (" tests only ", " `s4` ", " Figure nine "):
        assert not _needed_by(row, names), row


def test_census_deletions_stay_deleted():
    """The knobs only tests set, the plug-in registries (outbox sink
    schemes, user-store URIs), the commit-log consumers' cron periods,
    the leader's in-batch coalescer (coalescing lives in the distributor)
    the system-table checkpoint with its recovery (a snapshot folds
    the commit log into node images only; the session, watch and node
    tables are their own durable record) and the hand-written per-member
    folds and images of a transaction (the follower stages one write set
    and projects every image from its staged node) were deleted by the
    census; their names stay out of ``src/``.  So do the mechanisms only
    their own unit tests called: the kernel's interrupts (a process ends
    by returning), ``Event.trigger``, ``Environment.any_of`` (``AnyOf``
    is the one form), ``Resource.acquire``, ``RngRegistry.spawn``, the
    ``Scaled`` latency wrapper, the object store's bucket listing and
    stored-size sum, ``CostMeter.reset``, ``TimedLock.guarded_update``
    (a holder states ``held_by`` itself), the never-read
    ``previous_at`` and the ZooKeeper client's ``auto_heartbeat``; and
    the distributor's copy of the armed-instance selection.  And the GC
    cron with its sweeps of the node, session and watch tables, the
    tombstone age read off a lock the delete had removed, and the watch
    registry's instance removal only the sweep called: the leader queues
    its tombstones to a delayed GC queue instead.  And the hand-placed
    crash points with their table and per-function fault plans: a crash
    lands in a window of the storage boundary instead.  And the storage
    circuit breaker with its fixed policy object, its session-suspending
    hook and its test helper (no fault cell, benchmark or ledger workload
    ever tripped it: the retry loop alone absorbs every fault), and the
    reference ensemble's expiry callbacks nothing registered.  And the
    leader's second tail for the distributor with its ack-after-replicate
    process: the distributor acks at commit, and both pipelines end in
    one notify-pop-fence tail.  And the fused per-path query-and-consume,
    the leader's own consume loop and its pass-through epoch snapshot:
    both pipelines consume through ``WatchRegistry.consume`` and clear
    through ``EpochLedger.remove_after``.  And ``Attr.between`` and
    ``Always``, which only their unit tests called, and the per-table
    read counter nothing read.  And the deploy-time storage fault rate:
    storage faults are armed on the running deployment
    (``arm_storage_faults``), as crashes are.  And the cron's payload
    factory: a scheduled function is invoked with no payload.  And a
    function's per-probe sample log (its stage histogram is the one
    record of a probe), the per-table write count (the cost meter's
    ``kv_write`` line counts the same writes) and a queue message's
    enqueue time, which nothing read.  And the key-value store's
    idempotence-token ledger with its window and its retirement: a
    retried write's token is a record its retry loop holds.  And the
    leader's failure answer: the leader answers only what it commits, and
    a request whose txid it rejects is answered by its own session-queue
    message."""
    src = Path(repro.__file__).parent
    twins = re.compile(
        "leader_coalesce|coalesce_enabled|follower_max_receive|outbox_sinks|"
        "register_sink|make_sink|SINK_SCHEMES|register_backend|"
        "parse_store_uri|backend_for|registered_schemes|"
        "outbox_publish_ms|snapshot_auto_ms|outbox_batch|heartbeat_period_ms|"
        "_coalesce_plan|_skipped_images|_flush_superseded|"
        "recover_system|_checkpoint_system|_SYSTEM_CHECKPOINTS|"
        "_cseq_from_children|SNAPSHOT_SYS_PREFIX|wipe_system_tables|"
        "merge_multi_commit|multi_replication_plan|_parent_image|meta_only|"
        "node_image|parent_image|"
        r"\bInterrupt\b|\.interrupt\(|_interrupted\b|\bis_alive\b|self\._target\b|"
        r"def trigger\(|\bany_of\(|def acquire\(self\)|def spawn\(|class Scaled\b|"
        r"\bscaled\(|bucket_keys|total_stored_kb|guarded_update|previous_at|"
        "auto_heartbeat|_hb_proc|armed_watch_ids|"
        r"GC_PERIOD_MS|_sweep_nodes|_sweep_watches|_age_marker|"
        r"remove_instance|gc_task\b|"
        r"crash_point|CRASH_POINTS|fault_plan|"
        "CircuitBreaker|BREAKER_|breaker_threshold|breaker_cooldown_ms|"
        "RetryPolicy|_on_breaker_transition|shrink_breakers|"
        "on_session_expired|_ack_after|_distribute_and_finish|"
        r"query_consume_ops|_consume_watches|epoch_snapshot|read_count|"
        r"def between\(|class Always\b|storage_fault_rate|payload_factory|"
        r"\b(self|function|fn)\.segments\b|write_count|enqueued_at|"
        "retire_token|_token_results|_token_previous|TOKEN_WINDOW_MS|"
        "_notify_failure")
    for path in src.rglob("*.py"):
        assert not twins.search(path.read_text()), path
    assert "def reset(" not in (src / "cloud" / "pricing.py").read_text()


def test_the_fault_mix_is_one_constant():
    """A fault injector takes a stream and a rate; the mix of fault kinds
    is ``faults.DEFAULT_WEIGHTS``, which no caller overrides."""
    from repro.cloud.faults import FaultInjector

    params = list(inspect.signature(FaultInjector.__init__).parameters)
    assert params == ["self", "rng", "rate"]


def _switches(paths):
    return {name for path in paths
            for name in re.findall(r"\bFK_[A-Z][A-Z_]*\b", path.read_text())}


def test_env_switch_count_only_goes_down():
    names = _switches(Path(repro.__file__).parent.rglob("*.py"))
    assert len(names) <= MAX_ENV_SWITCHES, sorted(names)


def test_harness_switch_count_only_goes_down():
    names = _switches([*(ROOT / "tests").rglob("*.py"),
                       *(ROOT / "benchmarks").rglob("*.py"),
                       *(ROOT / ".github").rglob("*.yml")])
    assert len(names) <= MAX_HARNESS_SWITCHES, sorted(names)
    assert not names & {f"FK_{name}" for name in RETIRED_SWITCHES}


def test_client_is_blind_to_the_deployment_shape():
    source = Path(client.__file__).read_text()
    for name in ("leader_shards", ".distribution", "fence_board",
                 "shard_hint"):
        assert name not in source, name


def test_service_has_one_session_plane():
    src = Path(repro.__file__).parent
    twins = re.compile("TTL_ATTRIBUTE|expire_due|supports_ttl|ephemeral_ttl|"
                       "watch_shard|table_for|session_shard_of", re.I)
    for path in src.rglob("*.py"):
        assert not twins.search(path.read_text()), path
    assert "if self.shards" not in Path(heartbeat.__file__).read_text()


def test_one_commit_record():
    src = Path(repro.__file__).parent
    twins = re.compile(
        "SYSTEM_OUTBOX|fk-system-outbox|append_ops|compaction_enabled")
    for path in src.rglob("*.py"):
        assert not twins.search(path.read_text()), path


def test_one_storage_boundary():
    src = Path(repro.__file__).parent
    twins = re.compile(
        "storage_retry_enabled|storage_breaker_|"
        "RetryingKeyValueStore|RetryingUserStore|probe_interval|"
        "client_cache_kb|leader_max_receive")
    for path in src.rglob("*.py"):
        assert not twins.search(path.read_text()), path
    for path in src.rglob("*.py"):
        assert not _raw_clients(path.relative_to(src), path.read_text()), path


def _raw_clients(path, text):
    """Lines of a ``faaskeeper/`` module (``path`` relative to the package)
    that acquire a raw store; the backends and the wiring own them."""
    if path.parts[0] != "faaskeeper" or path.name in ("userstore.py",
                                                      "service.py"):
        return []
    return [n for n, line in enumerate(text.splitlines(), 1)
            if re.search(r"\.(kv|objectstore|cache)\(", line)]


def test_the_ratchet_sees_a_raw_client():
    seeded = (
        "class Heartbeat:\n"
        "    def handler(self, fctx, payload):\n"
        "        kv = self.service.cloud.kv('dynamodb:system')\n"
        "        obj = fctx.cloud.objectstore('s3')\n"
        "        cache = self.service.cloud.cache('redis')\n"
        "        yield from self.service.system_store.get_item(fctx.ctx, 't')\n")
    assert _raw_clients(Path("faaskeeper/heartbeat.py"), seeded) == [3, 4, 5]
    for owner in ("faaskeeper/userstore.py", "faaskeeper/service.py",
                  "cloud/objectstore.py"):
        assert _raw_clients(Path(owner), seeded) == []


#: The modules that may spell a storage round trip's fault draw, its
#: injected failures and its region penalty: the endpoint base, the
#: injector and the profile that defines the penalty.
ROUND_TRIP_OWNERS = ("cloud/endpoint.py", "cloud/faults.py",
                     "cloud/calibration.py")


def _hand_rolled_round_trips(path, text):
    """Lines of module ``path`` (relative to the package) that spell a fault
    prelude/postlude or a region penalty outside :data:`ROUND_TRIP_OWNERS`,
    or that read a cloud store's private state from ``userstore.py``."""
    banned = []
    if path.as_posix() not in ROUND_TRIP_OWNERS:
        banned.append(r"draw_fault\(|fire_before\(|fire_after\(|faults\.draw\("
                      r"|FAULT_TIMEOUT_MS|: injected |inter_region_")
    if path.as_posix() == "faaskeeper/userstore.py":
        banned.append(r"\._buckets\b|\._data\b")
    return [n for n, line in enumerate(text.splitlines(), 1)
            if banned and re.search("|".join(banned), line)]


def test_one_storage_endpoint():
    src = Path(repro.__file__).parent
    for path in src.rglob("*.py"):
        assert not _hand_rolled_round_trips(path.relative_to(src),
                                            path.read_text()), path


def test_the_ratchet_sees_a_hand_rolled_round_trip():
    seeded = (
        "def get(self, ctx, key):\n"
        "    fault = draw_fault(self.faults, 'get', mutating=False)\n"
        "    if fault is not None:\n"
        "        yield from self.faults.fire_before(fault, key)\n"
        "    value = self.profile.inter_region_extra_ms\n"
        "    self.faults.fire_after(fault, key)\n"
        "    return self.cloud.cache('redis')._data.get(key)\n"
        "def wipe_region(self, region):\n"
        "    self._stores[region]._buckets['b'].clear()\n"
        "def put(self, key):\n"
        "    if self.faults.draw(True) == 'timeout':\n"
        "        yield self.env.timeout(FAULT_TIMEOUT_MS)\n"
        "        raise ConnectionReset(f'put {key}: injected connection reset')\n")
    assert _hand_rolled_round_trips(Path("cloud/cache.py"),
                                    seeded) == [2, 4, 5, 6, 11, 12, 13]
    assert _hand_rolled_round_trips(Path("faaskeeper/userstore.py"),
                                    seeded) == [2, 4, 5, 6, 7, 9, 11, 12, 13]
    for owner in ROUND_TRIP_OWNERS:
        assert _hand_rolled_round_trips(Path(owner), seeded) == []


_CLONE_FALLBACK = inspect.getsource(expressions.clone)


def _stray_deepcopies(path, text):
    """Lines of a ``cloud/`` or ``faaskeeper/`` module that name
    ``deepcopy`` outside ``expressions.clone``'s fallback."""
    if path.parts[0] not in ("cloud", "faaskeeper"):
        return []
    text = text.replace(_CLONE_FALLBACK, "\n" * _CLONE_FALLBACK.count("\n"))
    return [n for n, line in enumerate(text.splitlines(), 1)
            if "deepcopy" in line]


def test_deepcopy_stays_in_clones_fallback():
    src = Path(repro.__file__).parent
    for path in src.rglob("*.py"):
        assert not _stray_deepcopies(path.relative_to(src),
                                     path.read_text()), path


_SEEDED_DEEPCOPY = (
    "import copy\n"
    "from copy import deepcopy as dc\n"
    "\n"
    "class Backend:\n"
    "    def write_node(self, path, image):\n"
    "        self._data[path] = copy.deepcopy(image)\n"
    "        self._shallow = copy.copy(self._index)\n")


@pytest.mark.parametrize("path, text, expected", [
    pytest.param("faaskeeper/userstore.py", _SEEDED_DEEPCOPY, [2, 6],
                 id="faaskeeper"),
    pytest.param("cloud/objectstore.py", _SEEDED_DEEPCOPY, [2, 6], id="cloud"),
    # clone's own fallback is exempt; a second deepcopy beside it is not
    pytest.param("cloud/expressions.py",
                 _CLONE_FALLBACK + "\n\ndef snapshot(value):\n"
                 "    return copy.deepcopy(value)\n",
                 [_CLONE_FALLBACK.count("\n") + 4], id="clone-fallback"),
])
def test_the_ratchet_sees_a_deepcopy(path, text, expected):
    assert _stray_deepcopies(Path(path), text) == expected
    assert _stray_deepcopies(Path("analysis/bench.py"), text) == []


#: The storage modules whose reads hand out the frozen stored image.
ZERO_COPY_READS = ("cloud/endpoint.py", "cloud/kvstore.py",
                   "cloud/objectstore.py", "faaskeeper/userstore.py")


def _cloned_returns(text):
    """Lines of the ``return`` statements whose value calls ``clone``."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Return) and node.value is not None
        and any(isinstance(call, ast.Call)
                and getattr(call.func, "id", getattr(call.func, "attr", None)) == "clone"
                for call in ast.walk(node.value)))


def test_storage_reads_return_no_clone():
    src = Path(repro.__file__).parent
    for module in ZERO_COPY_READS:
        assert not _cloned_returns((src / module).read_text()), module


def test_the_ratchet_sees_a_cloned_return():
    seeded = (
        "def get_item(self, rec):\n"
        "    return clone(rec.value)\n"
        "def get_object(self, entry):\n"
        "    return entry[0], expressions.clone(entry[1])\n"
        "def replay(self, applied):\n"
        "    return [clone(image) for image in applied]\n"
        "def current(self, value):\n"
        "    raise ConditionFailed(item=clone(value))\n"
        "old_image = cached_property(lambda self: clone(self.old))\n")
    assert _cloned_returns(seeded) == [2, 4, 6]


#: The only whole-table reads, each in its one owner: the heartbeat sweep
#: reads its slice of the session table, recovery reads the checkpoint.
SCAN_OWNERS = {("faaskeeper/heartbeat.py", "handler"),
               ("faaskeeper/snapshot.py", "recover_region")}


def _stray_scans(path, text):
    """Lines of the ``.scan(`` calls of module ``path`` (relative to the
    package) outside the functions :data:`SCAN_OWNERS` lets scan."""
    tree = ast.parse(text)
    owned = [range(fn.lineno, fn.end_lineno + 1) for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             and (path.as_posix(), fn.name) in SCAN_OWNERS]
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "scan"
                  and not any(node.lineno in lines for lines in owned))


def test_only_the_heartbeat_and_recovery_scan_a_table():
    """No sweeper reads a table whole: garbage is collected by the write
    that makes it (the leader queues its tombstones, a lock's release
    takes its lock-only item, the next write consumes a dead session's
    watch instance)."""
    src = Path(repro.__file__).parent
    for path in src.rglob("*.py"):
        assert not _stray_scans(path.relative_to(src), path.read_text()), path


def test_the_ratchet_sees_a_stray_scan():
    seeded = (
        "class GarbageCollectorLogic:\n"
        "    def handler(self, fctx, payload):\n"
        "        items = yield from self.store.scan(fctx.ctx, 'nodes')\n"
        "        def inner():\n"
        "            return store.scan(ctx, 'watches', segment=1)\n"
        "        return items\n"
        "rows = store.scan(ctx, 'sessions')\n")
    assert _stray_scans(Path("faaskeeper/gc.py"), seeded) == [3, 5, 7]
    # the owner's own function may scan; a nested helper in it too
    assert _stray_scans(Path("faaskeeper/heartbeat.py"), seeded) == [7]


#: ``random``'s normal samplers: ``SizeAware.sample`` inlines the one draw.
NORMAL_DRAWS = {"gauss", "normalvariate", "lognormvariate"}


def _normal_draws(text):
    """Lines naming one of :data:`NORMAL_DRAWS` in code (a call, a bound
    method kept for later, an import), not in prose."""
    return sorted({node.lineno for node in ast.walk(ast.parse(text))
                   if getattr(node, "attr", getattr(node, "id", None)) in NORMAL_DRAWS
                   or isinstance(node, ast.alias) and node.name in NORMAL_DRAWS})


def test_one_normal_draw():
    src = Path(repro.__file__).parent
    for path in src.rglob("*.py"):
        assert not _normal_draws(path.read_text()), path


def test_the_ratchet_sees_a_normal_draw():
    seeded = (
        "from random import lognormvariate\n"
        "def sample(self, rng):\n"
        "    # math.exp(rng.gauss(0.0, sigma)), inlined\n"
        "    noise = math.exp(rng.gauss(0.0, self.sigma))\n"
        "    draw = rng.normalvariate\n"
        "    return lognormvariate(0.0, 1.0) * draw(0.0, 1.0) * rng.random()\n")
    assert _normal_draws(seeded) == [1, 4, 5, 6]


def test_every_stage_is_declared_once():
    """One deployment declaration: every function is deployed, given its
    queue and scheduled in ``FaaSKeeperService._deploy_stage``, so each of
    those calls has one site under ``faaskeeper/`` (``fifo_queue`` a
    second, ``FaaSKeeperService._open_queue``, for the per-session queues);
    and the hand-kept twins the stage list replaced — the second gate
    board, the cron list, the chaos forwarders — stay out of ``src/``."""
    src = Path(repro.__file__).parent
    sources = {path: path.read_text() for path in src.rglob("*.py")}
    wiring = "".join(text for path, text in sources.items()
                     if path.parent.name == "faaskeeper")
    assert wiring.count("deploy_function(") == 1
    assert wiring.count("runtime.schedule(") == 1
    assert wiring.count("fifo_queue(") <= 2
    twins = re.compile(
        "WatchGateBoard|SessionFenceBoard|disarm_storage_faults|"
        "_scheduled_tasks|_logic_by_fn|wipe_user_region|region_user_image")
    for path, text in sources.items():
        assert not twins.search(text), path


def _statement_lists(tree):
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if isinstance(block, list):
                yield block


_SPAWNS = ("invoke", "invoke_direct", "process")


def _spawned_then_awaited(tree):
    """Line numbers of ``yield x.invoke(...)`` (or ``.invoke_direct``,
    ``.process``) and of ``handle = x.invoke(...)`` whose next statement —
    or the first one of a ``try`` that follows — is ``yield handle``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Yield) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "attr", "") in _SPAWNS):
            yield node.lineno
    for block in _statement_lists(tree):
        for stmt, after in zip(block, block[1:]):
            if not (isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Call)
                    and isinstance(stmt.value.func, ast.Attribute)
                    and stmt.value.func.attr in _SPAWNS
                    and isinstance(stmt.targets[0], ast.Name)):
                continue
            if isinstance(after, ast.Try):
                after = after.body[0]
            value = getattr(after, "value", None)
            if (isinstance(value, ast.Yield)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == stmt.targets[0].id):
                yield stmt.lineno


def test_the_ratchet_sees_a_spawn_awaited_at_once():
    seen = ast.parse(
        "def f():\n"
        "    done = fn.invoke(batch,\n"
        "                     invoke_latency_ms=latency)\n"
        "    try:\n"
        "        yield done\n"
        "    except Exception:\n"
        "        pass\n"
        "    proc = env.process(work())\n"
        "    yield proc\n"
        "    kept = fn.invoke(batch)\n"
        "    other()\n"
        "    yield kept\n"
        "    return (yield runtime.invoke_direct(fn, payload))\n")
    assert sorted(_spawned_then_awaited(seen)) == [2, 8, 13]


def test_a_process_is_for_concurrency():
    """Whoever only waits for one coroutine runs it (``yield from``), and
    fan-out goes through ``sim.kernel.gather``: the triggers hold no
    invocation handle yielded on the next statement, and no function under
    ``faaskeeper/`` both spawns processes and yields an ``AllOf``."""
    from repro.cloud import functions, queues

    for module in (queues, functions):
        tree = ast.parse(Path(module.__file__).read_text())
        assert not list(_spawned_then_awaited(tree)), module.__name__

    for path in (Path(repro.__file__).parent / "faaskeeper").rglob("*.py"):
        tree = ast.parse(path.read_text())
        assert not list(_spawned_then_awaited(tree)), path
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            spawns = any(isinstance(node, ast.Call)
                         and ast.unparse(node.func).endswith("env.process")
                         for node in ast.walk(func))
            yields_all = any(
                isinstance(node, ast.Yield)
                and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "attr",
                            getattr(node.value.func, "id", ""))
                in ("AllOf", "all_of")
                for node in ast.walk(func))
            assert not (spawns and yields_all), \
                f"{path.name}:{func.lineno} {func.name}: use gather"


def _sleeps_as_events(path, tree):
    """Line numbers of ``yield <expr>.timeout(...)`` and ``yield
    Timeout(...)`` (a sleep spelled as an event nobody else waits on), and,
    outside ``sim/kernel.py``, of a store to an attribute ``now``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Yield) and isinstance(node.value, ast.Call):
            func = node.value.func
            if (isinstance(func, ast.Attribute) and func.attr == "timeout"
                    or isinstance(func, ast.Name) and func.id == "Timeout"):
                yield node.lineno
        if (path.as_posix() != "sim/kernel.py" and isinstance(node, ast.Attribute)
                and node.attr == "now" and isinstance(node.ctx, ast.Store)):
            yield node.lineno


def test_a_sleep_is_a_bare_delay():
    src = Path(repro.__file__).parent
    for path in [*src.rglob("*.py"), *(ROOT / "benchmarks").rglob("*.py")]:
        tree = ast.parse(path.read_text())
        where = path.relative_to(src) if path.is_relative_to(src) else path
        assert not list(_sleeps_as_events(where, tree)), path


def test_the_ratchet_sees_a_sleep_spelled_as_an_event():
    seeded = ast.parse(
        "def f(self, env):\n"
        "    yield self.env.timeout(5)\n"
        "    yield Timeout(env, 0.05)\n"
        "    yield AnyOf(env, [event, env.timeout(1)])\n"
        "    env.timeout(2).callbacks.append(deliver)\n"
        "    yield 0.05\n"
        "    env.now = 3.0\n"
        "    env.now, _eid, event = heappop(env._queue)\n"
        "    started = env.now\n")
    assert sorted(_sleeps_as_events(Path("cloud/queues.py"), seeded)) == [2, 3, 7, 8]
    assert sorted(_sleeps_as_events(Path("sim/kernel.py"), seeded)) == [2, 3]


def test_ci_fault_matrix_runs_every_cell_once():
    """The ``faults`` job runs ``test_faults.py`` with ``-k <leg>`` once
    per word of its ``leg`` matrix: every kind the chaos monkey arms has a
    crash cell, and every cell id holds exactly one leg word (the cells' test
    name and the workload names none), so each cell runs in exactly one
    leg."""
    import yaml

    from repro.faaskeeper.chaos import ChaosMonkey
    from repro.faaskeeper.service import STAGE_KINDS

    from ..integration import test_faults

    workflow = ROOT / ".github" / "workflows" / "ci.yml"
    job = yaml.safe_load(workflow.read_text())["jobs"]["faults"]
    legs = job["strategy"]["matrix"]["leg"]
    runs = [step["run"] for step in job["steps"]
            if "test_faults.py" in step.get("run", "")]
    assert runs and all('-k "${{ matrix.leg }}"' in run for run in runs)
    assert not any(leg in test_faults.test_audits_hold.__name__
                   for leg in legs)
    for cell in test_faults.CELLS:
        assert sum(leg in cell for leg in legs) == 1, cell
    for workload in test_faults.WORKLOADS:  # a cell id may name its workload
        assert not any(leg in workload for leg in legs), workload
    for leg in legs:
        assert any(leg in cell for cell in test_faults.CELLS), leg
    crashed = {stage for _config, stage, _rate, _store, _workload
               in test_faults.CELLS.values()}
    assert set(ChaosMonkey.STAGES) <= crashed
    assert set(ChaosMonkey.STAGES) <= set(STAGE_KINDS)


def test_tier1_legs_flip_no_default():
    """A deployment's defaults do not read the environment, so the tier-1
    job has no leg that re-runs the suite with one flipped: besides the
    Python versions, its one axis and its one ``FK_*`` name are the
    sanitizer's."""
    import yaml

    workflow = ROOT / ".github" / "workflows" / "ci.yml"
    job = yaml.safe_load(workflow.read_text())["jobs"]["test"]
    assert set(job["strategy"]["matrix"]) - {"include"} == {
        "python-version", "sanitize"}
    names = {name for step in job["steps"] for name in step.get("env", {})}
    assert {name for name in names if name.startswith("FK_")} == {
        "FK_SANITIZE"}


def test_every_ci_job_is_bounded():
    """A hung leg (say a handler redelivered forever) fails in minutes, not
    at GitHub's 360-minute default."""
    import yaml

    for workflow in (ROOT / ".github" / "workflows").glob("*.yml"):
        for name, job in yaml.safe_load(workflow.read_text())["jobs"].items():
            assert job.get("timeout-minutes", 360) <= 30, (workflow.name, name)


def test_every_benchmark_runs_in_ci():
    """``pytest benchmarks`` collects nothing (``python_files`` is
    ``test_*.py``), so a benchmark runs in CI only where a step names its
    file: every ``benchmarks/bench_*.py`` is named by some step's command."""
    import yaml

    workflow = ROOT / ".github" / "workflows" / "ci.yml"
    runs = " ".join(step.get("run", "")
                    for job in yaml.safe_load(workflow.read_text())["jobs"].values()
                    for step in job["steps"])
    missing = sorted(path.name for path in (ROOT / "benchmarks").glob("bench_*.py")
                     if f"benchmarks/{path.name}" not in runs)
    assert not missing, missing


#: Calls that read the wall clock or ambient entropy: time comes from the
#: kernel (``env.now``, ``env.timeout``), randomness from a seeded
#: ``RngRegistry`` stream or ``random.Random(seed)``.  The module-level
#: ``random.*`` functions draw from the process-global stream.
_AMBIENT = {
    *(f"time.{name}" for name in (
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "sleep")),
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "uuid.uuid1", "uuid.uuid4", "os.urandom",
    *(f"secrets.{name}" for name in (
        "token_bytes", "token_hex", "token_urlsafe", "randbelow", "choice")),
    *(f"random.{name}" for name in (
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "gauss", "normalvariate", "lognormvariate",
        "expovariate", "betavariate", "gammavariate", "triangular",
        "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
        "randbytes", "seed", "setstate", "getstate")),
}


def _ambient_calls(text):
    """Lines that call an ``_AMBIENT`` function or build an unseeded
    ``random.Random()``, seen through ``import x as y`` and ``from x
    import y as z`` aliases (relative imports are the project's own)."""
    tree = ast.parse(text)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                aliases[alias.asname or head] = (
                    alias.name if alias.asname else head)
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        head, dot, rest = ast.unparse(node.func).partition(".")
        target = aliases.get(head, head) + dot + rest
        if target in _AMBIENT or (target == "random.Random"
                                  and not node.args and not node.keywords):
            lines.append(node.lineno)
    return sorted(lines)


#: The trees whose output must replay from a seed.  Each holds at least
#: five modules, so a mistyped path scans nothing and fails.
_SEEDED_TREES = ("src/repro/faaskeeper", "src/repro/cloud", "examples",
                 "benchmarks")


def test_no_ambient_clock_or_rng():
    for tree in _SEEDED_TREES:
        paths = sorted((ROOT / tree).rglob("*.py"))
        assert len(paths) >= 5, tree
        for path in paths:
            lines = _ambient_calls(path.read_text())
            assert not lines, f"{path.relative_to(ROOT)}: lines {lines}"


_AMBIENT_BAD = (
    "import time\n"
    "import random\n"
    "import uuid\n"
    "from datetime import datetime\n"
    "from time import monotonic as mono\n"
    "\n"
    "def handler():\n"
    "    start = time.time()          # ambient\n"
    "    time.sleep(0.5)              # ambient\n"
    "    t = mono()                   # ambient\n"
    "    stamp = datetime.now()       # ambient\n"
    "    rid = uuid.uuid4()           # ambient\n"
    "    jitter = random.random()     # ambient\n"
    "    rng = random.Random()        # ambient\n"
    "    return start, t, stamp, rid, jitter, rng\n")

_AMBIENT_GOOD = (
    "import random\n"
    "\n"
    "def handler(env, rng_registry):\n"
    "    start = env.now\n"
    "    yield env.timeout(500.0)\n"
    "    rng = rng_registry.stream('handler')\n"
    "    seeded = random.Random(42)\n"
    "    return start, rng.random(), seeded.random()\n")


# The ratchet must report exactly the lines marked ``# ambient``.
@pytest.mark.parametrize("text, marks", [
    pytest.param(_AMBIENT_BAD, 7, id="bad"),
    pytest.param(_AMBIENT_GOOD, 0, id="good"),
    pytest.param("import random\nrng = random.Random(7)\n", 0, id="seeded"),
    pytest.param("from time import time as wall\nx = wall()  # ambient\n", 1,
                 id="alias"),
])
def test_the_ratchet_sees_an_ambient_call(text, marks):
    marked = [n for n, line in enumerate(text.splitlines(), 1)
              if "# ambient" in line]
    assert len(marked) == marks
    assert _ambient_calls(text) == marked


def test_the_linter_stays_deleted():
    """FK001 is the ratchet above; the ``repro.fklint`` package, its CLI
    and its CI step are gone, and nothing points at them."""
    named = re.compile(r"repro[./]fklint")
    paths = [*Path(repro.__file__).parent.rglob("*.py"),
             *(ROOT / ".github" / "workflows").glob("*.yml"),
             ROOT / "README.md", ROOT / "CONTRIBUTING.md",
             ROOT / "pyproject.toml"]
    for path in paths:
        assert not named.search(path.read_text()), path
