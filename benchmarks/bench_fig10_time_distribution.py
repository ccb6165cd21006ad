"""Figure 10: time distribution inside the FaaSKeeper functions.

Breaks follower time into lock / push / commit and leader time into
get-node / user-store update / watch query / notify / pop, for small and
large nodes.  Shape checks: data movement (queue push, user-store update)
dominates; synchronization (lock/commit) is a limited share — the paper's
argument that queues and object storage, not locking, bound write latency.
"""

from repro.analysis import render_table
from repro.analysis.bench import deploy_fk, label, segment_summary

SIZES = (4, 64 * 1024, 250 * 1024)
REPS = 40

FOLLOWER_SEGMENTS = ("lock", "push", "commit")
LEADER_SEGMENTS = ("get_node", "update_user", "watch_query", "notify", "pop")


def run():
    out = {}
    for size in SIZES:
        cloud, service, client = deploy_fk(seed=100 + size % 97,
                                           user_store="s3",
                                           function_memory_mb=2048)
        client.create("/n", b"")
        payload = b"x" * size
        for _ in range(REPS):
            client.set_data("/n", payload)
        cloud.run(until=cloud.now + 5000)
        out[(size, "follower")] = segment_summary(service.follower_fn,
                                                  FOLLOWER_SEGMENTS)
        out[(size, "leader")] = segment_summary(service.leader_fns[0],
                                                LEADER_SEGMENTS)

    print()
    rows = []
    for (size, role), segments in sorted(out.items(), key=lambda kv: kv[0][0]):
        total = sum(s.p50 for s in segments.values())
        for name, s in segments.items():
            rows.append([label(size), role, name, s.p50,
                         f"{100 * s.p50 / total:.0f}%"])
    print(render_table(["size", "function", "segment", "p50 ms", "share"],
                       rows, title="Figure 10: function time distribution"))
    return out


def test_fig10_time_distribution(benchmark):
    out = benchmark.pedantic(run, rounds=1, iterations=1)
    for size in SIZES:
        follower = out[(size, "follower")]
        leader = out[(size, "leader")]
        # Push to the leader queue dominates the follower at large sizes.
        if size >= 64 * 1024:
            assert follower["push"].p50 > follower["lock"].p50 + follower["commit"].p50
        # Synchronization impact is limited: lock+commit < half the leader's
        # user-store update time at large sizes.
        if size >= 64 * 1024:
            sync = follower["lock"].p50 + follower["commit"].p50
            assert sync < leader["update_user"].p50
        # The leader is dominated by moving data to user storage.
        leader_total = sum(s.p50 for s in leader.values())
        assert leader["update_user"].p50 / leader_total > 0.5
        # Watch query is cheap ("insignificant cost and overhead").
        assert leader["watch_query"].p50 < 10
    # Lock and commit times are size-independent (metadata-only items).
    assert abs(out[(4, "follower")]["lock"].p50
               - out[(250 * 1024, "follower")]["lock"].p50) < 4
