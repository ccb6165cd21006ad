"""Table 3: variability of function performance (2048 MB).

Percentile table (min/p50/p90/p95/p99) of the follower's total / lock /
push / commit and the leader's total / get-node / update-node / watch-query
segments at 4 B and 250 kB.  Shape checks: medians sit near the paper's
values; tails degrade most on queue pushes and S3 updates.
"""

from repro.analysis import render_table, summarize
from repro.analysis.bench import deploy_fk, label, segment_summary

REPS = 120
SIZES = (4, 250 * 1024)


def run():
    results = {}
    for size in SIZES:
        cloud, service, client = deploy_fk(seed=110, user_store="s3",
                                           function_memory_mb=2048)
        client.create("/n", b"")
        payload = b"x" * size
        for _ in range(REPS):
            client.set_data("/n", payload)
        cloud.run(until=cloud.now + 5000)
        fol = segment_summary(service.follower_fn, ("lock", "push", "commit"))
        lead = segment_summary(service.leader_fns[0],
                               ("get_node", "update_user", "watch_query"))
        fol["total"] = summarize(service.follower_fn.durations_ms)
        lead["total"] = summarize(service.leader_fns[0].durations_ms)
        results[size] = {"follower": fol, "leader": lead}

    print()
    rows = []
    for size in SIZES:
        for role in ("follower", "leader"):
            for name, s in results[size][role].items():
                rows.append([role, name, label(size),
                             round(s.min, 2), round(s.p50, 2),
                             round(s.p90, 2), round(s.p95, 2),
                             round(s.p99, 2)])
    print(render_table(
        ["function", "op", "size", "min", "p50", "p90", "p95", "p99"],
        rows, title="Table 3: function op percentiles, 2048 MB (ms)"))
    return results


def test_tab3_variability(benchmark):
    r = benchmark.pedantic(run, rounds=1, iterations=1)
    small, big = r[4], r[250 * 1024]
    # Follower medians near the paper: lock ~8, push ~13 (4B) / ~72 (250kB),
    # commit ~8.
    assert 5 < small["follower"]["lock"].p50 < 12
    assert 9 < small["follower"]["push"].p50 < 20
    assert 45 < big["follower"]["push"].p50 < 100
    assert 5 < small["follower"]["commit"].p50 < 14
    # Leader: get-node ~5 ms; update-node ~42 (4B) to ~102+ (250kB).
    assert 3 < small["leader"]["get_node"].p50 < 8
    assert 30 < small["leader"]["update_user"].p50 < 60
    assert 75 < big["leader"]["update_user"].p50 < 140
    # Tail degradation strongest on push and update_user.
    push = big["follower"]["push"]
    assert push.p99 > 1.3 * push.p50
    upd = big["leader"]["update_user"]
    assert upd.p99 > 1.3 * upd.p50
    # Lock/commit are size-independent.
    assert abs(big["follower"]["lock"].p50 - small["follower"]["lock"].p50) < 4
