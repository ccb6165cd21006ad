"""Coordination recipes under contention.

Every recipe runs its contention scenario across the deployment matrix
``leader_shards ∈ {1, 4} × distributor {off, on_commit}`` — the recipes
are pure client-API code, so these tests double as end-to-end consistency
checks of the sharded pipeline, the watch protocol and the distributor's
visibility watermark under multi-session interleavings.

Contenders run as simulation processes driving the recipes' ``co_*``
coroutine forms (the virtual-time analogue of one thread per client).
"""

import pytest

from repro.faaskeeper import recipes
from repro.sim.kernel import AllOf

from .conftest import make_service

#: leader_shards {1,4} x distributor {off, on_commit}.
MATRIX = {
    "s1": dict(leader_shards=1),
    "s4": dict(leader_shards=4),
    "s1-dist": dict(leader_shards=1, distributor_enabled=True),
    "s4-dist": dict(leader_shards=4, distributor_enabled=True),
}


@pytest.fixture(params=sorted(MATRIX), ids=sorted(MATRIX))
def deployment(request):
    # Fault-free on purpose: these are *liveness* scenarios driven to
    # completion with run(until=AllOf(workers)) — every wakeup rides a
    # one-shot watch, and a fault-delayed re-registration may miss the
    # only delete notification it was waiting for (permitted by the
    # watch contract, fatal to an unbounded drain).  The recipes under
    # storage faults are the ``recipes`` cells of
    # tests/integration/test_faults.py, which bound every recipe op by a
    # deadline and audit the end state after quiescence.
    return make_service(seed=2024, **MATRIX[request.param])


def run_all(cloud, procs):
    cloud.run(until=AllOf(cloud.env, procs))


# ---------------------------------------------------------------- Lock
def test_lock_contention_mutual_exclusion_fifo_and_no_herd(deployment):
    cloud, service = deployment
    env = cloud.env
    workers, rounds, hold_ms = 4, 2, 25.0
    log = []          # (event, worker) in wall order
    held = {"n": 0}
    locks = []

    def worker(name):
        client = yield from service.co_connect()
        lock = recipes.Lock(client, "/locks/app", identifier=name)
        locks.append(lock)
        for _ in range(rounds):
            assert (yield from lock.co_acquire())
            held["n"] += 1
            assert held["n"] == 1, "two holders inside the critical section"
            log.append(("acquire", name))
            yield env.timeout(hold_ms)
            held["n"] -= 1
            log.append(("release", name))
            yield from lock.co_release()

    run_all(cloud, [env.process(worker(f"w{i}")) for i in range(workers)])

    grants = [name for kind, name in log if kind == "acquire"]
    assert len(grants) == workers * rounds          # no lost wakeups
    # FIFO: the first full cycle of grants repeats in the same order (the
    # sequence-node queue preserves enlistment order across rounds).
    assert grants[workers:] == grants[:workers]
    releases = len(grants)
    wake_ups = sum(lock.wake_ups for lock in locks)
    # Herd-free: each release wakes at most the one successor watching it.
    assert wake_ups <= releases


def test_lock_holder_eviction_wakes_exactly_one_successor(deployment):
    cloud, service = deployment
    env = cloud.env
    holder_client = service.connect()
    holder = recipes.Lock(holder_client, "/locks/app", identifier="holder")
    assert holder.acquire()

    waiters = []
    outcomes = []

    def waiter(name):
        client = yield from service.co_connect()
        lock = recipes.Lock(client, "/locks/app", identifier=name)
        waiters.append(lock)
        assert (yield from lock.co_acquire())
        outcomes.append(name)
        yield from lock.co_release()

    procs = [env.process(waiter(f"w{i}")) for i in range(2)]
    cloud.run(until=cloud.now + 2_000)
    assert outcomes == []                         # lock genuinely held
    holder_client.alive = False                   # holder crashes
    cloud.run(until=AllOf(env, [procs[0]]))       # eviction releases the lock
    assert outcomes == ["w0"]                     # FIFO successor
    run_all(cloud, procs)
    assert outcomes == ["w0", "w1"]
    # The eviction woke only the immediate successor, which then released.
    assert sum(lock.wake_ups for lock in waiters) <= 2


def test_lock_nonblocking_and_timeout(deployment):
    cloud, service = deployment
    a, b = service.connect(), service.connect()
    lock_a = recipes.Lock(a, "/locks/app", identifier="a")
    lock_b = recipes.Lock(b, "/locks/app", identifier="b")
    assert lock_a.acquire()
    assert not lock_b.acquire(blocking=False)
    before = cloud.now
    assert not lock_b.acquire(timeout_ms=500.0)
    assert cloud.now - before >= 500.0
    # The failed attempts withdrew their contender nodes: the queue holds
    # only the owner, and release hands over cleanly.
    assert lock_a.contenders() == ["a"]
    lock_a.release()
    assert lock_b.acquire()
    lock_b.release()


# ---------------------------------------------------------------- Semaphore
def test_semaphore_bounds_concurrent_holders(deployment):
    cloud, service = deployment
    env = cloud.env
    max_leases, workers = 2, 5
    held = {"n": 0, "max": 0}
    done = []

    def worker(name):
        client = yield from service.co_connect()
        sem = recipes.Semaphore(client, "/leases/gpu", max_leases=max_leases,
                                identifier=name)
        assert (yield from sem.co_acquire())
        held["n"] += 1
        held["max"] = max(held["max"], held["n"])
        assert held["n"] <= max_leases, "lease bound violated"
        # Hold long relative to the write-pipeline latency, so lease
        # concurrency genuinely materializes.
        yield env.timeout(3_000.0)
        held["n"] -= 1
        yield from sem.co_release()
        done.append(name)

    run_all(cloud, [env.process(worker(f"w{i}")) for i in range(workers)])
    assert len(done) == workers                   # nobody starved
    assert held["max"] == max_leases              # concurrency was real


def test_semaphore_lease_holders_in_grant_order(deployment):
    """Three contenders on two leases: the first two hold, the third
    waits; a release hands its lease to the waiter, behind the holder
    that stayed."""
    cloud, service = deployment
    a, b, c = (recipes.Semaphore(service.connect(), "/leases/db",
                                 max_leases=2, identifier=name)
               for name in ("a", "b", "c"))
    assert a.acquire() and b.acquire()
    waiting = cloud.env.process(c.co_acquire())
    cloud.run(until=cloud.now + 2_000)
    assert not waiting.triggered                  # no third lease
    assert c.lease_holders() == ["a", "b"]
    assert a.release()
    cloud.run(until=AllOf(cloud.env, [waiting]))
    assert waiting.value is True
    assert a.lease_holders() == ["b", "c"]


# ---------------------------------------------------------------- Barrier
def test_barrier_blocks_until_removed(deployment):
    cloud, service = deployment
    env = cloud.env
    owner = service.connect()
    gate = recipes.Barrier(owner, "/gates/maint")
    assert gate.create()
    assert not gate.create()                      # already up

    released = []

    def waiter(name):
        client = yield from service.co_connect()
        barrier = recipes.Barrier(client, "/gates/maint")
        assert (yield from barrier.co_wait())
        released.append((name, env.now))

    procs = [env.process(waiter(f"w{i}")) for i in range(3)]
    cloud.run(until=cloud.now + 3_000)
    assert released == []                         # gate holds everyone
    removed_at = cloud.now
    assert gate.remove()
    run_all(cloud, procs)
    assert len(released) == 3
    assert all(t >= removed_at for _name, t in released)
    # Waiting on a gate that is already down returns immediately.
    late = recipes.Barrier(service.connect(), "/gates/maint")
    assert late.wait(timeout_ms=1.0)


def test_double_barrier_synchronizes_enter_and_leave(deployment):
    cloud, service = deployment
    env = cloud.env
    group = 3
    arrived, entered, left = [], [], []

    def participant(name, delay):
        client = yield from service.co_connect()
        barrier = recipes.DoubleBarrier(client, "/sync/job", group,
                                        identifier=name)
        yield env.timeout(delay)
        arrived.append(env.now)
        assert (yield from barrier.co_enter())
        entered.append(env.now)
        yield env.timeout(20.0)                   # the computation
        assert (yield from barrier.co_leave())
        left.append(env.now)

    procs = [env.process(participant(f"p{i}", 400.0 * i))
             for i in range(group)]
    run_all(cloud, procs)
    assert len(entered) == len(left) == group
    # Nobody enters before the last participant arrived, and nobody is
    # done leaving before every participant started leaving.
    assert min(entered) >= max(arrived)
    assert min(left) >= max(entered)


def test_double_barrier_immediate_leave_does_not_deadlock(deployment):
    """Regression: the completing participant used to delete the ``ready``
    gate at the top of leave(); with an asynchronous ack (on_commit) that
    could land before a straggler's enter-side watch delivery, leaving the
    straggler waiting forever on a gate that never recurs — and every
    leaver waiting on the straggler's presence node.  The gate is now torn
    down only by the last leaver."""
    cloud, service = deployment
    env = cloud.env
    group = 2
    finished = []

    def participant(name, delay):
        client = yield from service.co_connect()
        barrier = recipes.DoubleBarrier(client, "/sync/fast", group,
                                        identifier=name)
        yield env.timeout(delay)
        assert (yield from barrier.co_enter())
        # No hold at all: the completer leaves the instant it enters.
        assert (yield from barrier.co_leave())
        finished.append(name)

    procs = [env.process(participant(f"p{i}", 800.0 * i))
             for i in range(group)]
    run_all(cloud, procs)
    assert sorted(finished) == ["p0", "p1"]
    # The last leaver tore the gate down: the barrier is reusable.
    cloud.run(until=cloud.now + 10_000)
    probe = service.connect()
    assert probe.exists("/sync/fast/ready") is None


# ---------------------------------------------------------------- Counter
def test_counter_concurrent_increments_lose_nothing(deployment):
    cloud, service = deployment
    env = cloud.env
    workers, increments = 4, 3

    def worker():
        client = yield from service.co_connect()
        counter = recipes.Counter(client, "/stats/jobs")
        for _ in range(increments):
            yield from counter.co_add(1)

    run_all(cloud, [env.process(worker()) for _ in range(workers)])
    # Drain the distributor queues: a fresh session may legally read stale
    # until the last increment's replication lands (acks precede it).
    cloud.run(until=cloud.now + 30_000)
    reader = recipes.Counter(service.connect(), "/stats/jobs")
    assert reader.value == workers * increments   # no lost update


def test_counter_sync_facade_contends_with_coroutine_writers(deployment):
    """``counter += 1`` is the coroutine CAS loop run to completion: it
    loses nothing against a concurrent ``co_add`` writer."""
    cloud, service = deployment
    rounds = 3

    def rival():
        counter = recipes.Counter((yield from service.co_connect()),
                                  "/stats/mixed")
        for _ in range(rounds):
            yield from counter.co_add(1)

    proc = cloud.env.process(rival())
    counter = recipes.Counter(service.connect(), "/stats/mixed")
    for _ in range(rounds):
        counter += 1
    run_all(cloud, [proc])
    cloud.run(until=cloud.now + 30_000)
    assert counter.value == 2 * rounds
    assert counter.last_set <= 2 * rounds


# ---------------------------------------------------------------- Queue
def test_queue_claims_each_entry_exactly_once(deployment):
    cloud, service = deployment
    env = cloud.env
    producer = service.connect()
    queue = recipes.Queue(producer, "/queues/tasks")
    jobs = [f"job {i}".encode() for i in range(9)]
    for job in jobs:
        queue.put(job)
    assert queue.qsize() == len(jobs)

    claims = {}

    def consumer(name):
        client = yield from service.co_connect()
        q = recipes.Queue(client, "/queues/tasks")
        claims[name] = []
        while True:
            data = yield from q.co_get()
            if data is None:
                return
            claims[name].append(data)

    run_all(cloud, [env.process(consumer(f"c{i}")) for i in range(3)])
    drained = [job for got in claims.values() for job in got]
    assert sorted(drained) == sorted(jobs)        # exactly once, none lost
    assert queue.is_empty()


def test_queue_blocking_get_wakes_on_put(deployment):
    cloud, service = deployment
    env = cloud.env
    got = []

    def consumer():
        client = yield from service.co_connect()
        q = recipes.Queue(client, "/queues/tasks")
        data = yield from q.co_get(block=True)
        got.append(data)

    def producer():
        client = yield from service.co_connect()
        q = recipes.Queue(client, "/queues/tasks")
        yield env.timeout(2_000.0)                # consumer waits first
        yield from q.co_put(b"late job")

    run_all(cloud, [env.process(consumer()), env.process(producer())])
    assert got == [b"late job"]

    # And a timed-out blocking get returns None.
    empty = recipes.Queue(service.connect(), "/queues/tasks")
    assert empty.get(block=True, timeout_ms=300.0) is None


# ---------------------------------------------------------------- Election
def test_election_succession_is_herd_free(deployment):
    cloud, service = deployment
    leadership = []
    elections = []
    for i in range(3):
        client = service.connect()
        election = recipes.Election(client, "/election",
                                    identifier=f"n{i}")
        is_leader = election.volunteer(
            on_leadership=lambda name=f"n{i}": leadership.append(name))
        assert is_leader == (i == 0)              # enlistment order leads
        elections.append(election)
    assert leadership == ["n0"]                   # immediate lead fires too
    assert elections[0].is_leader
    assert [e.watching for e in elections[1:]] == \
        [elections[0].node, elections[1].node]
    assert elections[0].contenders() == ["n0", "n1", "n2"]

    # The leader crashes; the heartbeat evicts its session, deleting the
    # ephemeral candidate node — exactly one successor is woken.
    elections[0].client.alive = False
    cloud.run(until=cloud.now + 3 * 60_000)
    assert leadership == ["n0", "n1"]
    assert elections[1].is_leader
    assert not elections[2].is_leader             # n2 was not disturbed
    assert elections[2].wake_ups == 0             # herd-free succession
    assert elections[1].contenders() == ["n1", "n2"]

    # Voluntary resignation hands over the same way.
    elections[1].resign()
    cloud.run(until=cloud.now + 10_000)
    assert leadership == ["n0", "n1", "n2"]
    assert elections[2].is_leader


def test_election_lead_blocks_until_leadership_or_timeout():
    cloud, service = make_service(seed=2024)
    first = recipes.Election(service.connect(), "/election", "n0")
    second = recipes.Election(service.connect(), "/election", "n1")
    assert first.lead() is True                   # no rival: leads at once
    t0 = cloud.now
    assert second.lead(timeout_ms=500.0) is False
    assert cloud.now - t0 >= 500.0 and not second.is_leader
    # The leader resigns half a second into the successor's wait.
    timer = cloud.env.timeout(500.0)
    timer.callbacks.append(lambda _ev: cloud.env.process(_resign(first)))
    assert second.lead(timeout_ms=60_000.0) is True
    assert second.is_leader and cloud.now - t0 < 60_000.0


def test_election_lead_timeout_withdraws_the_candidacy():
    """A timed-out ``lead()`` leaves no candidate behind to inherit the
    leadership later without being told."""
    cloud, service = make_service(seed=2024)
    first = recipes.Election(service.connect(), "/election", "n0")
    second = recipes.Election(service.connect(), "/election", "n1")
    assert first.lead() is True
    assert second.lead(timeout_ms=500.0) is False
    first.resign()
    cloud.run(until=cloud.now + 10_000)
    assert not second.is_leader
    assert second.contenders() == []


def _resign(election):
    yield election.client.delete_async(election.node).event


# ---------------------------------------------------------------- cache interop
@pytest.mark.parametrize("extra", [
    dict(),
    dict(distributor_enabled=True),
], ids=["inline", "distributor"])
def test_lock_contention_with_client_cache_enabled(extra):
    """Recipes ride the watch-invalidated read cache unchanged: contention
    results are identical with caching on (the guards, not freshness,
    carry correctness).

    Regression (pre-fix livelock): a session joining a watch instance
    between the consume's query and its removal was swept away unnotified,
    leaving its cached children entry guarded by a dead watch — the waiter
    then re-read the stale member list forever.  The guarded consume
    (id + session-list pin, re-query on conflict) closes the window; this
    lock loop under cache + distributor hits it reliably.
    """
    cloud, service = make_service(seed=77, leader_shards=4,
                                  client_cache_entries=64, **extra)
    env = cloud.env
    grants = []
    locks = []

    def worker(name):
        client = yield from service.co_connect()
        lock = recipes.Lock(client, "/locks/app", identifier=name)
        locks.append(lock)
        for _ in range(2):
            assert (yield from lock.co_acquire())
            grants.append(name)
            yield env.timeout(10.0)
            yield from lock.co_release()

    run_all(cloud, [env.process(worker(f"w{i}")) for i in range(3)])
    assert len(grants) == 6
    assert grants[3:] == grants[:3]               # FIFO preserved
    assert sum(lock.wake_ups for lock in locks) <= 6


# ---------------------------------------------------------------- busy retry
# Every top-level create locks "/", and the follower answers ``system_busy``
# once its timed lock gives up: with ~80 sessions creating at one instant,
# a handful of creates are rejected.  The recipe cores and co_ensure_path
# ride the session's busy-only retry, so contention costs backoff, not a
# failed recipe.
@pytest.mark.parametrize("seed", range(10))
def test_concurrent_top_level_ensure_paths_all_complete(seed):
    cloud, service = make_service(seed=seed, user_store="mem")
    env = cloud.env
    clients = service.connect_many(100)
    run_all(cloud, [env.process(c.co_ensure_path(f"/c{i}"))
                    for i, c in enumerate(clients)])
    assert sorted(service.connect().get_children("/")) == \
        sorted(f"c{i}" for i in range(100))


@pytest.mark.parametrize("seed", range(10))
def test_lock_contenders_finish_beside_top_level_creators(seed):
    """6 contenders x 2 rounds, while 74 other sessions each ensure a
    top-level path: the contenders' own ``/lock`` creates contend on "/"
    with them, and every grant still lands."""
    cloud, service = make_service(seed=seed, user_store="mem")
    env = cloud.env
    grants = []

    def contender(i, client):
        lock = recipes.Lock(client, "/lock", identifier=f"l{i}")
        for _ in range(2):
            assert (yield from lock.co_acquire())
            grants.append(i)
            yield env.timeout(20.0)
            yield from lock.co_release()

    lockers, creators = service.connect_many(6), service.connect_many(74)
    run_all(cloud, [env.process(contender(i, c))
                    for i, c in enumerate(lockers)]
            + [env.process(c.co_ensure_path(f"/c{i}"))
               for i, c in enumerate(creators)])
    assert len(grants) == 12
    assert len(service.connect().get_children("/")) == 75  # creators + /lock
