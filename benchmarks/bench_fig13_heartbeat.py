"""Figure 13: heartbeat function performance and 24-hour cost.

Execution time of the heartbeat function versus number of monitored
clients, for memory allocations 128 MB - 2048 MB; plus the daily cost at
one invocation per minute.  Shape checks: execution time decreases with
the allocation; the daily cost stays a small fraction of a VM day-rate and
the allocation time under 0.2 % of the day.
"""

from repro.analysis import render_table, summarize
from repro.analysis.bench import deploy_fk
from repro.costmodel import MonitoringCostModel

CLIENTS = (1, 4, 16, 64)
MEMORIES = (128, 512, 2048)


def run():
    exec_times = {}
    for memory in MEMORIES:
        for n_clients in CLIENTS:
            cloud, service, _bootstrap = deploy_fk(
                seed=131, user_store="dynamodb", function_memory_mb=memory,
                heartbeat_period_ms=60_000)
            clients = [_bootstrap] + [service.connect()
                                      for _ in range(n_clients - 1)]
            for i, c in enumerate(clients):
                c.create(f"/eph-{i}", b"", ephemeral=True)
            before = len(service.heartbeat_fns[0].durations_ms)
            cloud.run(until=cloud.now + 12 * 60_000)
            samples = service.heartbeat_fns[0].durations_ms[before:]
            exec_times[(memory, n_clients)] = summarize(samples)

    print()
    rows = [[m, n, exec_times[(m, n)].p50, exec_times[(m, n)].p99]
            for m in MEMORIES for n in CLIENTS]
    print(render_table(["MB", "clients", "p50 ms", "p99 ms"], rows,
                       title="Figure 13 (left): heartbeat execution time"))

    model = MonitoringCostModel()
    cost_rows = []
    daily = {}
    for m in MEMORIES:
        for n in CLIENTS:
            cost = model.daily_cost(m, exec_times[(m, n)].p50, n)
            daily[(m, n)] = cost
            cost_rows.append([m, n, f"{100*cost:.3f}¢" if cost < 1 else cost,
                              f"{100*model.vm_price_fraction(m, exec_times[(m, n)].p50, n):.1f}%"])
    print(render_table(["MB", "clients", "$/day", "of t3.small"],
                       cost_rows,
                       title="Figure 13 (right): heartbeat cost over 24 h"))
    return exec_times, daily, model


def test_fig13_heartbeat(benchmark):
    exec_times, daily, model = benchmark.pedantic(run, rounds=1, iterations=1)
    # Execution time decreases with the memory allocation.
    for n in CLIENTS:
        assert exec_times[(128, n)].p50 > exec_times[(2048, n)].p50
    # More clients cost more time (scan + pings) but stay sub-second.
    for m in MEMORIES:
        assert exec_times[(m, 64)].p50 >= exec_times[(m, 1)].p50 * 0.8
        assert exec_times[(m, 64)].p50 < 600
    # Daily cost is a fraction of a VM: < 1 cent for most configurations.
    assert daily[(512, 16)] < 0.01
    # Allocation time under 0.2% of the day for the typical configuration.
    assert model.daily_allocation_fraction(exec_times[(512, 16)].p50) < 0.002
