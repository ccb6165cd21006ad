"""The seeded fault matrix: sandbox crashes, storage faults, and both.

Every cell of :data:`CELLS` stands up one deployment, arms one pipeline
stage with seeded random crashes in its functions' crash windows — the
start, before or after any storage op, queue send or watch delivery, the
end (:class:`~repro.faaskeeper.chaos.ChaosMonkey`)
and/or a seeded transient-fault schedule on every storage endpoint
(``FaaSKeeperService.arm_storage_faults`` right after deploy: throttles,
timeouts, connection resets, partial writes), drives one seeded workload
to quiescence and audits what ZooKeeper promises.  The workload column
names what runs:

* ``writer`` — a writer and a watcher on three paths: randomized writes,
  a delete and two one-shot watches (every cell before the column);
* ``recipes`` — three sessions through a Lock, a Semaphore, a Barrier, a
  Queue, a Counter and one 2-path ``multi()``, every op riding
  ``client.busy_retry`` and bounded by a deadline, so a livelock is a
  violation rather than a hang;
* ``cached`` — caching readers beside a writer, the client cache
  invalidated by watches.

The audits: every request gets one answer (a later answer to a
``(session, rid)`` agrees with its first), every acknowledged write lands
exactly once in every region (no lost write, no duplicate, drained
pending lists and epoch counters, every acked txid visible and nothing
stuck above the visibility floor; with the outbox, at-least-once sink
delivery of every acked ``(txid, path)`` in per-path txid order), every
one-shot watch fires exactly once, reads after quiescence return the
acked data (through the cache, in ``cached`` cells), the recipes keep
mutual exclusion, claim each Queue item once and lose no Counter
increment, and the retry layer absorbs every storage fault (no session
LOST, no retry budget exhausted).  Reads one session takes of another's writes
mid-run are not audited: they may legally be stale.

Seeds come from ``FK_FAULT_SEEDS`` (how many, default 12; CI runs 50) or
``FK_FAULT_SEED`` (exactly one: the replay knob; any failure prints the
command to run).  CI's ``faults`` job runs one leg per word of its
``leg`` matrix with ``-k <leg>``; every cell id holds exactly one of them
(so no workload name holds one).
"""

import os
import random
from contextlib import contextmanager

import pytest

from repro.cloud import Cloud
from repro.faaskeeper import FaaSKeeperConfig, FaaSKeeperService, recipes
from repro.faaskeeper.chaos import ChaosMonkey, verify_exactly_once
from repro.faaskeeper.client import FaaSKeeperClient
from repro.faaskeeper.model import KeeperState, Response, SetDataOp
from repro.faaskeeper.outbox import OutboxStage
from repro.faaskeeper.userstore import BACKENDS

from ..helpers.metrics import total
from ..helpers.visibility import ids_above_the_floor

TWO_REGIONS = ["us-east-1", "eu-west-1"]
LOGGED = dict(commit_log_enabled=True)

#: Deployment shapes.  The crash cells log every commit (the region-wipe
#: drill snapshots from the log); ``paper`` is the default deployment.
CONFIGS = {
    "paper": {},
    "s1": dict(LOGGED),
    "s4": dict(LOGGED, leader_shards=4),
    "s1-dist": dict(LOGGED, distributor_enabled=True, regions=TWO_REGIONS),
    "s4-dist": dict(LOGGED, leader_shards=4, distributor_enabled=True,
                    regions=TWO_REGIONS),
    "s1-pub": dict(LOGGED, outbox_enabled=True),
    "s4-pub": dict(LOGGED, leader_shards=4, outbox_enabled=True),
}

#: (config, crashed stage): distributor crashes need a distributor, outbox
#: crashes a publisher.
MATRIX = [
    ("s1", "leader"), ("s1", "watch"),
    ("s4", "leader"), ("s4", "watch"),
    ("s1-dist", "leader"), ("s1-dist", "distributor"), ("s1-dist", "watch"),
    ("s4-dist", "leader"), ("s4-dist", "distributor"), ("s4-dist", "watch"),
    ("s1-pub", "leader"), ("s1-pub", "outbox"), ("s4-pub", "outbox"),
    *((config, "follower")
      for config in ("s1", "s4", "s1-dist", "s4-dist", "s1-pub", "paper")),
]

STORES = sorted(BACKENDS)

#: Cell id -> (config, crashed stage or None, storage fault rate, user
#: store or None for the config's, workload).
CELLS = {
    **{f"{config}-{stage}": (config, stage, 0.0, None, "writer")
       for config, stage in MATRIX},
    # the distributor crash on every user store, each named explicitly
    **{f"s1-dist-distributor-{store}": ("s1-dist", "distributor", 0.0, store,
                                        "writer")
       for store in STORES},
    **{f"storage-5pct-{store}": ("paper", None, 0.05, store, "writer")
       for store in STORES},
    **{f"s1-pub-leader-3pct-{store}": ("s1-pub", "leader", 0.03, store,
                                       "writer")
       for store in STORES},
    # every crash kind under a 5 % storage-fault schedule
    **{f"{config}-{stage}-5pct": (config, stage, 0.05, None, "writer")
       for config, stage in [("s1", "leader"), ("s1-dist", "distributor"),
                             ("s4-dist", "watch"), ("s1-pub", "outbox")]},
    # the coordination recipes and the client read cache under faults
    "storage-5pct-recipes": ("paper", None, 0.05, None, "recipes"),
    "s4-dist-storage-5pct-recipes": ("s4-dist", None, 0.05, None, "recipes"),
    "s1-pub-outbox-5pct-recipes": ("s1-pub", "outbox", 0.05, None, "recipes"),
    "storage-5pct-cached": ("paper", None, 0.05, None, "cached"),
    "s4-dist-watch-5pct-cached": ("s4-dist", "watch", 0.05, None, "cached"),
    "s1-pub-leader-5pct-cached": ("s1-pub", "leader", 0.05, None, "cached"),
    "s4-dist-follower-5pct-recipes": ("s4-dist", "follower", 0.05, None,
                                      "recipes"),
    "s1-follower-5pct-cached": ("s1", "follower", 0.05, None, "cached"),
}


def fault_seeds():
    pinned = os.environ.get("FK_FAULT_SEED")
    if pinned:  # empty string = unset (CI passes '' when not pinning)
        return [int(pinned)]
    return list(range(1, int(os.environ.get("FK_FAULT_SEEDS", "12")) + 1))


def injected(service):
    return total(service, "fk_storage_faults_injected")


def drive_writer(service, rng):
    """One writer and one watcher on ``/a``–``/c``: randomized writes, a
    delete, two one-shot watches, and reads after quiescence.  Returns
    (violations, clients, expected final data per path, acked
    ``(txid, path)`` pairs)."""
    cloud = service.cloud
    writer = service.connect()
    watcher = service.connect()
    paths = ["/a", "/b", "/c"]
    expected = {}
    for path in paths + ["/doomed"]:
        writer.create(path, b"init")
        expected[path] = b"init"
    # on_commit acks run ahead of replication: let the creates land in
    # every region before the watcher reads them.
    cloud.run(until=cloud.now + 60_000)

    # One-shot watches, armed before the write traffic: each instance
    # must fire exactly once, crash-retried fan-outs notwithstanding.
    fired = {"/a": 0, "/b": 0}
    for path in fired:
        watcher.get_data(path, watch=lambda _ev, p=path: fired.__setitem__(
            p, fired[p] + 1))

    writes = []
    for i in range(rng.randint(8, 14)):
        path = rng.choice(paths)
        data = f"{path[1:]}-{i}".encode()
        writes.append((path, data, writer.set_data_async(path, data)))
    writes.append(("/doomed", None, writer.delete_async("/doomed")))
    cloud.run(until=cloud.now + 240_000)
    violations, acked = settle(writes, expected)

    cloud.run(until=cloud.now + 120_000)  # drain fan-outs + replication
    written = {path for path, _d, _f in writes}
    for path, count in fired.items():
        want = 1 if path in written else 0  # one-shot: exactly once, or never
        if count != want:
            violations.append(f"watch on {path} fired {count} times "
                              f"(want {want})")
    violations += read_back(watcher, expected, paths)
    return violations, [writer, watcher], expected, acked


def settle(writes, expected):
    """(violations, acked ``(txid, path)`` pairs) of ``writes``, each a
    (path, data or None for a delete, future); every acked write becomes
    its path's expected data."""
    violations, acked = [], []
    for path, data, fut in writes:
        op = f"write {data!r} to {path}" if data else f"delete of {path}"
        if not fut.done:
            violations.append(f"{op} never completed")
            continue
        try:
            result = fut.wait()
        except Exception as exc:  # a crash or a fault surfaced to the client
            violations.append(f"{op} failed: {exc!r}")
            continue
        expected[path] = data  # session FIFO: last submitted wins (Z2)
        if data is not None:
            acked.append((result.txid, path))
    return violations, acked


def read_back(client, expected, paths):
    """Reads under faults come back from the retry layer, never as a raised
    storage error; they run last, so no crash schedule moves."""
    violations = []
    for path in paths:
        try:
            data, _stat = client.get_data(path)
        except Exception as exc:
            violations.append(f"read of {path} failed: {exc!r}")
            continue
        if data != expected[path]:
            violations.append(
                f"read of {path} returned {data!r}, want {expected[path]!r}")
    return violations


#: Virtual time every recipe op must finish in: a livelocked op is a
#: violation, not a hang.
RECIPE_DEADLINE_MS = 240_000


def drive_recipes(service, rng):
    """Three sessions each take a Lock, then a 2-lease Semaphore, add 2 to
    a Counter and pass a Barrier that session 0 removes; session 0 also
    fills a Queue the others drain and commits one 2-path ``multi()``.
    Every recipe op rides ``client.busy_retry`` and must finish before
    :data:`RECIPE_DEADLINE_MS`.  Audited after quiescence: mutual
    exclusion, each Queue item claimed exactly once, the Counter's total,
    every Barrier party through, and the ``multi()`` members delivered."""
    cloud, env = service.cloud, service.cloud.env
    clients = [service.connect() for _ in range(3)]
    first = clients[0]
    first.create("/r", b"")
    for path in ("/r/m1", "/r/m2"):
        first.create(path, b"")
    recipes.Barrier(first, "/r/gate").create()
    items = [f"item-{i}".encode() for i in range(rng.randint(2, 4))]
    cloud.run(until=cloud.now + 60_000)  # the setup lands in every region

    violations, acked, claimed, done = [], [], [], []
    holders = {"lock": 0, "lease": 0}

    def hold(kind, bound, waiter):
        yield from waiter.co_acquire()
        holders[kind] += 1
        if holders[kind] > bound:
            violations.append(f"{holders[kind]} {kind} holders at once")
        yield env.timeout(rng.uniform(5.0, 30.0))
        holders[kind] -= 1
        yield from waiter.co_release()

    def session(i, client):
        yield from hold("lock", 1, recipes.Lock(client, "/r/lock"))
        yield from hold("lease", 2, recipes.Semaphore(client, "/r/sem", 2))
        counter = recipes.Counter(client, "/r/count")
        for _ in range(2):
            yield from counter.co_add(1)
        barrier = recipes.Barrier(client, "/r/gate")
        queue = recipes.Queue(client, "/r/queue")
        if i:
            yield from barrier.co_wait()
            while (item := (yield from queue.co_get())) is not None:
                claimed.append(item)
            return
        for item in items:
            yield from queue.co_put(item)
        ops = [SetDataOp("/r/m1", b"m1"), SetDataOp("/r/m2", b"m2")]
        results = yield from client.busy_retry.co_call(client.multi_async, ops)
        acked.extend((result.txid, result.path) for result in results)
        yield from barrier.co_remove()

    def run(i, client):
        try:
            yield from session(i, client)
        except Exception as exc:
            violations.append(f"session {i}'s recipes failed: {exc!r}")
        done.append(i)

    for i, client in enumerate(clients):
        env.process(run(i, client))
    cloud.run(until=cloud.now + RECIPE_DEADLINE_MS)
    late = sorted(set(range(len(clients))) - set(done))
    if late:
        violations.append(f"sessions {late} still in a recipe op after "
                          f"{RECIPE_DEADLINE_MS} ms")
    cloud.run(until=cloud.now + 120_000)  # drain fan-outs + replication

    expected = {"/r/count": b"6", "/r/m1": b"m1", "/r/m2": b"m2"}
    left = [first.get_data(f"/r/queue/{name}")[0]
            for name in first.get_children("/r/queue")]
    if sorted(claimed + left) != sorted(items):
        violations.append(f"queue items {sorted(items)}: claimed {claimed}, "
                          f"left {left}")
    violations += read_back(first, expected, sorted(expected))
    return violations, clients, expected, acked


def drive_cached(service, rng):
    """One writer and two caching readers on ``/a``–``/c``: the readers
    fill their caches, the writer overwrites while the readers keep
    reading, and after quiescence every reader's read — a cache hit unless
    a watch invalidated the entry — returns the acked data."""
    cloud, env = service.cloud, service.cloud.env
    writer = service.connect()
    readers = [service.connect() for _ in range(2)]
    paths = ["/a", "/b", "/c"]
    expected = {}
    for path in paths:
        writer.create(path, b"init")
        expected[path] = b"init"
    cloud.run(until=cloud.now + 60_000)

    def keep_reading(reader):
        for _ in range(6):
            yield env.timeout(rng.uniform(0.0, 2_000.0))
            try:
                yield reader.get_data_async(rng.choice(paths)).event
            except Exception as exc:
                violations.append(f"read failed: {exc!r}")

    violations, writes = [], []
    for reader in readers:
        violations += read_back(reader, expected, paths)  # fill the cache
        env.process(keep_reading(reader))
    for i in range(rng.randint(6, 10)):
        path = rng.choice(paths)
        data = f"{path[1:]}-{i}".encode()
        writes.append((path, data, writer.set_data_async(path, data)))
    cloud.run(until=cloud.now + 240_000)
    unsettled, acked = settle(writes, expected)
    violations += unsettled

    cloud.run(until=cloud.now + 120_000)  # drain fan-outs + replication
    for reader in readers:
        violations += read_back(reader, expected, paths)
    return violations, [writer, *readers], expected, acked


#: Workload -> (function that runs it, config it needs).
WORKLOADS = {
    "writer": (drive_writer, {}),
    "recipes": (drive_recipes, {}),
    "cached": (drive_cached, dict(client_cache_entries=64)),
}


@contextmanager
def one_answer_per_request(service, violations):
    """The one-answer oracle: while open, every answer a client of
    ``service`` receives is checked against the first answer to its
    ``(session, rid)``, and one that disagrees with it (ok against
    failure, or two different txids) is a violation.  A redelivered
    duplicate that agrees is not."""
    first = {}
    deliver = FaaSKeeperClient._deliver_response

    def checked(client, response):
        if client.service is service:
            seen = first.setdefault((response.session, response.rid),
                                    response)
            if (seen.ok, seen.txid) != (response.ok, response.txid):
                violations.append(
                    f"{response.session} rid {response.rid} answered "
                    f"{_answer(seen)}, then {_answer(response)}")
        deliver(client, response)

    FaaSKeeperClient._deliver_response = checked
    try:
        yield
    finally:
        FaaSKeeperClient._deliver_response = deliver


def _answer(response):
    outcome = "ok" if response.ok else response.error or "failure"
    return f"{outcome} at txid {response.txid}"


def run_scenario(seed, cell, replay=()):
    """One seeded run of ``cell``; returns (violations, monkey, service,
    expected final data per path).  ``replay`` entries (a logged crash
    schedule) replace the monkey's draws: it then only models the sandbox
    loss.  Storage faults, like crashes, are armed on the running
    deployment."""
    config_name, stage, rate, store, workload = CELLS[cell]
    drive, needs = WORKLOADS[workload]
    cloud = Cloud.aws(seed=seed)
    kwargs = dict(CONFIGS[config_name], **needs)
    if store is not None:
        kwargs["user_store"] = store
    service = FaaSKeeperService.deploy(cloud, FaaSKeeperConfig(**kwargs))
    if rate:
        service.arm_storage_faults(rate)
    monkey = ChaosMonkey(service, seed=seed * 7919 + 13,
                         stages=[stage] if stage else [],
                         probability=0.0 if replay else 0.4)
    cloud.runtime.plan_crash(*replay)
    answers = []
    with one_answer_per_request(service, answers):
        violations, clients, expected, acked = drive(service,
                                                     random.Random(seed))
        violations += verify_exactly_once(service, expected, acked)
    violations += answers
    violations += ids_above_the_floor(service)

    # Every injected crash must have cost the sandbox its warm state.
    # (RetryBatch redeliveries also restart, so >= rather than ==.)
    if monkey.restarts < len(monkey.crashes):
        violations.append(f"{len(monkey.crashes)} crashes but only "
                          f"{monkey.restarts} restarts")
    # Zero session-fatal storage errors, and no retry budget exhausted.
    for client in clients:
        if client.state == KeeperState.LOST:
            violations.append(f"session {client.session_id} died LOST")
    exhausted = service.metrics_snapshot()[
        "fk_storage_retry_exhausted_total"]["values"]
    if sum(exhausted.values()):
        violations.append(f"retries exhausted: {exhausted}")
    return violations, monkey, service, expected


@pytest.mark.parametrize("cell", CELLS)
def test_audits_hold(cell):
    seeds = fault_seeds()
    crashes = faults = 0
    for seed in seeds:
        violations, monkey, service, _expected = run_scenario(seed, cell)
        crashes += len(monkey.crashes)
        faults += injected(service)
        if violations:
            pytest.fail(
                f"[cell={cell} seed={seed}] " + "; ".join(violations)
                + f"\ncrash schedule: {monkey.crashes}"
                + f"\nreproduce locally: FK_FAULT_SEED={seed} python -m pytest"
                f" 'tests/integration/test_faults.py::test_audits_hold[{cell}]'")
    # The matrix must exercise what the cell arms, not pass vacuously.
    _config, stage, rate, _store, _workload = CELLS[cell]
    assert crashes or not stage, f"no crash ever triggered across {seeds}"
    assert faults or not rate, f"no fault ever injected across {seeds}"


def test_a_multi_member_the_publisher_drops_is_a_violation(monkeypatch):
    """The outbox audit accounts each acked ``(txid, path)``: a publisher
    that emits only the first event of each record loses the second
    member of the recipe mix's 2-path ``multi()``, and the cell says so."""
    publish = OutboxStage._publish_record

    def first_event_only(self, fctx, record, pairs):
        return publish(self, fctx, record, pairs[:1])

    monkeypatch.setattr(OutboxStage, "_publish_record", first_event_only)
    violations, _monkey, _service, _exp = run_scenario(
        1, "s1-pub-outbox-5pct-recipes")
    assert any("/r/m2 neither delivered nor dead-lettered" in violation
               for violation in violations), violations


@pytest.mark.parametrize("cell", ["paper-follower", "s1-dist-follower"])
def test_a_follower_crash_after_its_push_gets_one_answer(cell):
    """The follower dies right after pushing a write to ``/c``.  Its
    redelivery waits out the dead attempt's lock and commits the write
    under a new txid; TryCommit of the dead attempt's txid then fails and
    burns it without a word.  A leader that answered that rejection would
    answer ``system_failure`` first, and the client would keep it."""
    violations, _monkey, service, _exp = run_scenario(
        12, cell, replay=["fk-follower:6:after:send#1"])
    assert service.follower_fn.failures == 1
    assert violations == []


def test_a_follower_crash_before_its_commit_fails_no_create():
    """The follower dies before committing a create of ``/b``, and its
    redelivery already holds the lock on ``/`` when the leader reaches the
    dead attempt's txid: TryCommit fails on it and burns the txid in
    silence, and the redelivered attempt commits the create under its own
    txid, which the leader answers.  A leader that answered the rejection
    would fail a create that the redelivery goes on to commit."""
    violations, _monkey, service, _exp = run_scenario(
        15, "paper-follower",
        replay=["fk-follower:2:before:transact_update#1"])
    assert service.follower_fn.failures == 1
    assert violations == []


def test_region_wipe_after_distributor_crashes_recovers_from_snapshot():
    """Disaster drill on top of a crash run: crash the distributor during
    the workload, snapshot + compact, wipe the secondary region, cold
    recover, and audit the rebuilt replica like any other region."""
    for seed in fault_seeds()[:3]:
        violations, _monkey, service, expected = run_scenario(
            seed, "s1-dist-distributor")
        assert not violations, f"[seed={seed}] pre-wipe: {violations}"
        cloud = service.cloud
        cloud.run_process(service.snapshots.take_snapshot(service.system_ctx))
        cloud.run_process(service.snapshots.compact(service.system_ctx))
        region = "eu-west-1"
        service.user_store.wipe_region(region)
        cloud.run_process(service.snapshots.recover_region(
            service.system_ctx, region, cold=True))
        for path, final in expected.items():
            image = service.user_store.peek(region, path)
            if final is None:
                assert image is None, \
                    f"[seed={seed}] {path}@{region} resurrected after recovery"
            else:
                assert image is not None and image.get("data") == final, \
                    (f"[seed={seed}] {path}@{region} lost after recovery; "
                     f"reproduce: FK_FAULT_SEED={seed}")


#: (cell, seed) -> (crash log, budget left per armed function): pins of
#: the harness's draws for a fixed seed, each replayed through
#: ``plan_crash`` below.
PINNED_SCHEDULES = {
    ("s4-dist-leader", 2): (
        "fk-leader-3:3:before:update_item#1 fk-leader-3:4:after:send#2 "
        "fk-leader-1:2:after:transact_update#1 fk-leader-1:3:end "
        "fk-leader-3:7:after:send#3",
        {"fk-leader": 4, "fk-leader-1": 2, "fk-leader-2": 4,
         "fk-leader-3": 1}),
    ("s4-dist-distributor", 3): (
        "fk-distributor-eu-west-1:4:start "
        "fk-distributor:9:before:update_item#1 "
        "fk-distributor-eu-west-1:5:before:write_node#2 "
        "fk-distributor:11:end fk-distributor:12:after:get_item#1",
        {"fk-distributor": 1, "fk-distributor-eu-west-1": 2}),
    ("s4-dist-watch", 1): (
        "fk-watch:2:end fk-watch:3:before:notify#1",
        {"fk-watch": 0}),
    ("s1-pub-outbox", 6): (
        "fk-outbox:5:before:get_item#1 fk-outbox:6:before:get_item#4 "
        "fk-outbox:7:before:get_item#3",
        {"fk-outbox": 1}),
}


@pytest.mark.parametrize("cell,seed", list(PINNED_SCHEDULES),
                         ids=[cell for cell, _seed in PINNED_SCHEDULES])
def test_arming_off_the_stage_list_keeps_the_crash_schedule(cell, seed):
    """The harness arms every function of the cell's kind over
    ``service.stages``; for a fixed seed it draws the same crash schedule
    and leaves the same budgets, and its log — ``fn:invocation:window``
    entries — replays through ``plan_crash`` to the same run."""
    crashes, budgets = PINNED_SCHEDULES[cell, seed]
    violations, monkey, service, _exp = run_scenario(seed, cell)
    assert not violations
    assert " ".join(monkey.crashes) == crashes
    assert monkey._budget == budgets

    def failures(service):
        return {name: fn.failures
                for name, fn in service.cloud.runtime.functions.items()}

    violations, replay, again, _exp = run_scenario(
        seed, cell, replay=monkey.crashes)
    assert not violations and replay.crashes == []
    assert replay.restarts == monkey.restarts == len(monkey.crashes)
    assert failures(again) == failures(service)
    assert again.cloud.now == service.cloud.now


def test_same_seed_replays_the_same_fault_schedule():
    """FK_FAULT_SEED replay: the schedule (and the whole run) is a pure
    function of (seed, cell)."""
    def fingerprint(seed):
        violations, _monkey, service, _exp = run_scenario(
            seed, "storage-5pct-hybrid")
        assert violations == []
        per_kind = {}
        for inj in service.storage_injectors:
            for kind, count in inj.injected.items():
                per_kind[kind] = per_kind.get(kind, 0) + count
        return injected(service), per_kind, service.cloud.now

    assert fingerprint(3) == fingerprint(3)


def test_different_seeds_draw_different_schedules():
    runs = [run_scenario(seed, "storage-5pct-mem")[2] for seed in (1, 2)]
    # Counts may coincide; the overall run trace must not.
    a, b = [(service.cloud.now, injected(service)) for service in runs]
    assert a != b


def test_fault_metrics_surface_in_the_registry():
    violations, _monkey, service, _exp = run_scenario(5, "storage-5pct-mem")
    assert violations == []
    snapshot = service.metrics_snapshot()
    gauge = snapshot["fk_storage_faults_injected"]["values"]
    drawn = sum(sum(i.injected.values()) for i in service.storage_injectors)
    assert sum(gauge.values()) == drawn > 0
    retried = snapshot["fk_storage_retries_total"]["values"]
    assert sum(retried.values()) > 0  # the layer actually absorbed faults


def test_the_one_answer_oracle_flags_a_disagreeing_answer():
    """Synthetic answers: a duplicate that agrees passes; a failure after
    an ok, or a second txid, is a violation; leaving restores delivery."""
    service = FaaSKeeperService.deploy(Cloud.aws(seed=1), FaaSKeeperConfig())
    client = service.connect()
    session = client.session_id
    violations = []
    with one_answer_per_request(service, violations):
        for rid, ok, txid in ((7, True, 5), (7, True, 5), (7, False, 0),
                              (8, True, 3), (8, True, 4)):
            client._deliver_response(Response(
                session=session, rid=rid, ok=ok, txid=txid,
                error="" if ok else "system_failure"))
    assert violations == [
        f"{session} rid 7 answered ok at txid 5, then system_failure at txid 0",
        f"{session} rid 8 answered ok at txid 3, then ok at txid 4"]
    assert "checked" not in FaaSKeeperClient._deliver_response.__qualname__


def test_fault_seed_env_pins_single_seed(monkeypatch):
    monkeypatch.setenv("FK_FAULT_SEED", "42")
    assert fault_seeds() == [42]
    monkeypatch.setenv("FK_FAULT_SEED", "")  # CI passes '' when not pinning
    monkeypatch.setenv("FK_FAULT_SEEDS", "3")
    assert fault_seeds() == [1, 2, 3]
