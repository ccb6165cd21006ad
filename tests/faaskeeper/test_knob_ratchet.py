"""Ratchet on the deployment's option surface: it may only shrink.

ROADMAP aim 2 ("same numbers, least machinery") counts config fields and
``FK_*`` environment switches.  These ceilings are the counts the tree
holds today; a PR that removes a knob lowers the number here, and nothing
may raise it.  The client library is held to the same aim from the other
side: it has one session pipeline, so its source may not name anything
that tells one deployment shape from another.  The service side of the
session plane likewise: one expiry path (the sweep), one watch table, one
scan path, so the names of their deleted twins stay out of ``src/``.
And the durability plane: one commit record per transaction that the
fold, the publisher and compaction read at their own cursors, so the
outbox table and the switch that pinned the log stay out too.  And the
storage boundary: one retrying proxy around both stores of every
deployment, so the switch that removed it, its hand-forwarded twins, the
second probe limiter and the knobs nothing turned stay out as well.
And the deployment: every stage is declared once, in one deploy helper,
and CI's crash-stage matrix follows the crash-point table.
And the kernel's process rule: a process is for concurrency, so no trigger
spawns an invocation it waits for at once and no stage hand-writes a
"spawn N, wait for all" where ``gather`` runs a lone member itself.
"""

import ast
import dataclasses
import re
from pathlib import Path

import repro
from repro.faaskeeper import FaaSKeeperConfig, client, heartbeat

MAX_CONFIG_FIELDS = 21
MAX_ENV_SWITCHES = 3


def test_config_field_count_only_goes_down():
    assert len(dataclasses.fields(FaaSKeeperConfig)) <= MAX_CONFIG_FIELDS


def test_env_switch_count_only_goes_down():
    src = Path(repro.__file__).parent
    names = {name for path in src.rglob("*.py")
             for name in re.findall(r"\bFK_[A-Z][A-Z_]*\b", path.read_text())}
    assert len(names) <= MAX_ENV_SWITCHES, sorted(names)


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
    # (the fk_storage_breaker_* metric names stay: dashboards read them)
    twins = re.compile(
        "storage_retry_enabled|(?<!fk_)storage_breaker_|"
        "RetryingKeyValueStore|RetryingUserStore|probe_interval|"
        "client_cache_kb|leader_max_receive")
    for path in src.rglob("*.py"):
        assert not twins.search(path.read_text()), path


def test_every_stage_is_declared_once():
    """One deployment declaration: every function is deployed, given its
    queue and scheduled in ``FaaSKeeperService._deploy_stage``, so each of
    those calls has one site under ``faaskeeper/`` (``fifo_queue`` a
    second for the per-session queues); and the hand-kept twins the stage
    list replaced — the second gate board, the cron list, the chaos
    forwarders — stay out of ``src/``."""
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


def test_ci_chaos_matrix_names_every_crashable_stage():
    """The ``chaos`` job's ``crash-stage`` matrix is a hand-kept copy of
    "which stage kinds have crash points": hold it to ``CRASH_POINTS``."""
    import yaml

    from repro.faaskeeper.chaos import CRASH_POINTS
    from repro.faaskeeper.service import STAGE_KINDS

    workflow = Path(__file__).parents[2] / ".github" / "workflows" / "ci.yml"
    jobs = yaml.safe_load(workflow.read_text())["jobs"]
    matrix = jobs["chaos"]["strategy"]["matrix"]["crash-stage"]
    assert sorted(matrix) == sorted(CRASH_POINTS)
    assert set(CRASH_POINTS) <= set(STAGE_KINDS)
