"""Figure 12: FaaSKeeper writes on Google Cloud.

Write-time distribution on the GCP deployment (Datastore system storage
with transaction-based synchronization, Cloud Storage user data).  Shape
checks: GCP writes are slower than AWS (expensive transactional commits),
and the commit/synchronization share is much larger than on AWS.
"""

from repro.analysis import render_table
from repro.analysis.bench import deploy_fk, label, segment_summary, sweep_write_latency

SIZES = (4, 64 * 1024, 250 * 1024)
REPS = 30


def run():
    results = {}
    for provider in ("aws", "gcp"):
        cloud, service, client = deploy_fk(seed=130, provider=provider,
                                           user_store="s3",
                                           function_memory_mb=2048)
        results[provider] = {
            "latency": sweep_write_latency(client, cloud, SIZES, reps=REPS),
            "follower": segment_summary(service.follower_fn,
                                        ("lock", "push", "commit")),
            "leader": segment_summary(service.leader_fns[0],
                                      ("get_node", "update_user",
                                       "watch_query")),
        }
    print()
    rows = []
    for provider in ("aws", "gcp"):
        for size in SIZES:
            s = results[provider]["latency"][size]
            rows.append([provider, label(size), s.p50, s.p95, s.p99])
    print(render_table(["provider", "size", "p50 ms", "p95", "p99"], rows,
                       title="Figure 12: write latency, AWS vs GCP"))
    rows = []
    for provider in ("aws", "gcp"):
        for role in ("follower", "leader"):
            for name, s in results[provider][role].items():
                rows.append([provider, role, name, s.p50])
    print(render_table(["provider", "function", "segment", "p50 ms"], rows,
                       title="Figure 12: segment medians"))
    return results


def test_fig12_gcp_writes(benchmark):
    r = benchmark.pedantic(run, rounds=1, iterations=1)
    # GCP writes slower than AWS at every size ("worse performance due to
    # significantly more expensive synchronization with transactions").
    for size in SIZES:
        assert r["gcp"]["latency"][size].p50 > r["aws"]["latency"][size].p50
    # The synchronization share (lock + commit) is much larger on GCP.
    aws_sync = r["aws"]["follower"]["lock"].p50 + r["aws"]["follower"]["commit"].p50
    gcp_sync = r["gcp"]["follower"]["lock"].p50 + r["gcp"]["follower"]["commit"].p50
    assert gcp_sync > 2.5 * aws_sync
    # GCP object storage is slower than S3 on the leader's update path.
    assert r["gcp"]["leader"]["update_user"].p50 > \
        r["aws"]["leader"]["update_user"].p50
