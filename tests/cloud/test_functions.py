"""Unit tests for the simulated function runtime."""

import pytest

from repro.cloud import FunctionCrash
from repro.cloud.calibration import io_multiplier
from repro.cloud.functions import SANDBOX_IDLE_MS


def _echo(fctx, payload):
    yield fctx.env.timeout(1)
    return payload


def test_direct_invocation_returns_result(cloud):
    fn = cloud.deploy_function("echo", _echo)
    done = cloud.runtime.invoke_direct(fn, {"x": 1})
    result = cloud.env.run(until=done)
    assert result == {"x": 1}
    assert fn.invocations == 1


def test_cold_then_warm_start(cloud):
    fn = cloud.deploy_function("echo", _echo)

    def timed():
        t0 = cloud.now
        done = fn.invoke("p")
        cloud.env.run(until=done)
        return cloud.now - t0

    first = timed()
    second = timed()
    assert fn.cold_starts == 1
    assert first > second + 50  # cold start is ~180 ms


def test_sandbox_expiry_causes_new_cold_start(cloud):
    fn = cloud.deploy_function("echo", _echo)
    cloud.env.run(until=fn.invoke("a"))
    cloud.run(until=cloud.now + SANDBOX_IDLE_MS + 1)
    cloud.env.run(until=fn.invoke("b"))
    assert fn.cold_starts == 2


def test_concurrent_invocations_need_multiple_sandboxes(cloud):
    fn = cloud.deploy_function("echo", _echo)
    d1 = fn.invoke("a")
    d2 = fn.invoke("b")
    cloud.env.run(until=d1)
    cloud.env.run(until=d2)
    assert fn.cold_starts == 2  # both started while no warm sandbox existed


def test_billing_charges_gb_seconds(cloud):
    def slow(fctx, payload):
        yield fctx.env.timeout(1000)  # 1 s
        return None

    fn = cloud.deploy_function("slow", slow, memory_mb=1024)
    cloud.env.run(until=fn.invoke(None))
    cost = cloud.meter.service_total("fn:slow")
    # 1 GB-s at 1.66667e-5 plus request fee; duration includes overheads
    assert 1.6e-5 < cost < 2.5e-5


def test_arm_billing_cheaper(cloud):
    def slow(fctx, payload):
        yield fctx.env.timeout(1000)
        return None

    x86 = cloud.deploy_function("sx", slow, memory_mb=1024, arch="x86")
    arm = cloud.deploy_function("sa", slow, memory_mb=1024, arch="arm")
    cloud.env.run(until=x86.invoke(None))
    cloud.env.run(until=arm.invoke(None))
    assert cloud.meter.service_total("fn:sa") < cloud.meter.service_total("fn:sx")


def test_io_multiplier_monotone():
    assert io_multiplier(2048) == pytest.approx(1.0)
    assert io_multiplier(512) > io_multiplier(1024) > io_multiplier(2048)
    # 512 MB should be roughly 33% slower than 2048 MB
    assert 1.25 < io_multiplier(512) < 1.45
    with pytest.raises(ValueError):
        io_multiplier(0)


def test_function_io_slower_with_less_memory(cloud):
    kv = cloud.kv()
    kv.create_table("t")

    def writer(fctx, payload):
        yield from kv.put_item(fctx.ctx, "t", "k", {"data": b"x" * 65536})
        return None

    small = cloud.deploy_function("w512", writer, memory_mb=512)
    large = cloud.deploy_function("w2048", writer, memory_mb=2048)

    def median_duration(fn):
        for _ in range(30):
            cloud.env.run(until=fn.invoke(None))
        durs = sorted(fn.durations_ms)
        return durs[len(durs) // 2]

    assert median_duration(small) > median_duration(large) * 1.15


def test_an_edited_spec_is_honoured_by_the_next_invocation(cloud):
    """The I/O context is built once per (memory, arch, region) — not once
    per function: sweeps that edit ``fn.spec`` must see the new speed."""
    seen = []

    def handler(fctx, payload):
        seen.append(fctx.ctx)
        yield fctx.env.timeout(1)

    fn = cloud.deploy_function("swept", handler, memory_mb=2048)
    for memory_mb, arch in ((2048, "x86"), (2048, "x86"), (512, "x86"),
                            (512, "arm"), (2048, "x86")):
        fn.spec.memory_mb, fn.spec.arch = memory_mb, arch
        cloud.env.run(until=fn.invoke(None))
    assert seen[0] is seen[1] is seen[4]  # same configuration, same context
    assert [ctx.arch for ctx in seen] == ["x86", "x86", "x86", "arm", "x86"]
    assert seen[0].io_mult == io_multiplier(2048) == 1.0
    assert seen[2].io_mult == io_multiplier(512)
    assert seen[3].io_mult == pytest.approx(
        io_multiplier(512) * cloud.profile.arm_io_factor)
    assert {ctx.region for ctx in seen} == {fn.spec.region}


def test_crash_point_injection(cloud):
    def fragile(fctx, payload):
        yield fctx.env.timeout(1)
        return "survived"

    fn = cloud.deploy_function("fragile", fragile)
    cloud.runtime.plan_crash("fragile:2:start")

    assert cloud.env.run(until=fn.invoke(None)) == "survived"
    with pytest.raises(FunctionCrash, match="fragile:2:start"):
        cloud.env.run(until=fn.invoke(None))
    assert cloud.env.run(until=fn.invoke(None)) == "survived"
    assert fn.failures == 1


def test_crash_windows_count_the_boundary_calls(cloud, ctx):
    """An armed invocation dies at the window named by its call's op and
    that op's number; ``end`` loses the reply of a handler that finished.
    Unarmed invocations share the frozen context."""
    q = cloud.fifo_queue("out")
    contexts = []

    def sender(fctx, payload):
        contexts.append(fctx.ctx)
        for i in range(2):
            yield from q.send(fctx.ctx, i)
        return "sent"

    fn = cloud.deploy_function("sender", sender)
    cloud.runtime.plan_crash("sender:2:after:send#1", "sender:3:before:send#2",
                             "sender:4:end")
    assert cloud.env.run(until=fn.invoke(None)) == "sent"
    for sent, window in ((1, "after:send#1"), (1, "before:send#2"),
                         (2, "end")):
        before = q.sent
        with pytest.raises(FunctionCrash, match=window):
            cloud.env.run(until=fn.invoke(None))
        assert q.sent - before == sent
    assert cloud.env.run(until=fn.invoke(None)) == "sent"
    assert fn.failures == 3
    assert contexts[4] is contexts[0] and contexts[0].crash is None
    assert contexts[1].crash is not None


def test_segment_probes_recorded(cloud):
    """``fctx.record`` hands each probe to ``on_segment`` and keeps no
    copy; a function with no observer drops it."""
    def probed(fctx, payload):
        t0 = fctx.now
        yield fctx.env.timeout(5)
        fctx.record("phase-a", fctx.now - t0)
        return None

    fn = cloud.deploy_function("probed", probed)
    cloud.env.run(until=fn.invoke(None))
    seen = []
    fn.on_segment = lambda segment, elapsed_ms: seen.append((segment, elapsed_ms))
    cloud.env.run(until=fn.invoke(None))
    assert seen == [("phase-a", pytest.approx(5.0))]
    assert not hasattr(fn, "segments")


def test_scheduled_function_fires_periodically(cloud):
    calls = []

    def tick(fctx, payload):
        calls.append(fctx.now)
        yield fctx.env.timeout(1)
        return None

    fn = cloud.deploy_function("tick", tick)
    task = cloud.runtime.schedule(fn, period_ms=60_000)
    cloud.run(until=5 * 60_000 + 1000)
    assert task.fired == 5
    assert len(calls) == 5


def test_scheduled_function_stop(cloud):
    def tick(fctx, payload):
        yield fctx.env.timeout(1)
        return None

    fn = cloud.deploy_function("tick", tick)
    task = cloud.runtime.schedule(fn, period_ms=10_000)
    cloud.run(until=35_000)
    task.stop()
    cloud.run(until=100_000)
    assert task.fired == 3


def test_scheduled_function_restart_replaces_the_parked_loop(cloud):
    def tick(fctx, payload):
        yield fctx.env.timeout(1)
        return None

    fn = cloud.deploy_function("tick", tick)
    task = cloud.runtime.schedule(fn, period_ms=10_000, offset_ms=2_000)
    task.stop()                      # the first loop is parked on its offset
    assert not task.enabled
    task.start()
    cloud.run(until=25_000)          # fires at 12 s and 22 s
    task.stop()
    task.start()                     # ...and again while parked on the period
    assert task.enabled
    cloud.run(until=45_000)          # restarted at 25 s: fires at 37 s
    assert task.fired == fn.invocations == 3


def test_scheduled_function_survives_handler_failure(cloud):
    def flaky(fctx, payload):
        yield fctx.env.timeout(1)
        return None

    fn = cloud.deploy_function("flaky", flaky)
    cloud.runtime.plan_crash("flaky:1:end", "flaky:2:end")  # first tick fails twice
    task = cloud.runtime.schedule(fn, period_ms=10_000)
    cloud.run(until=45_000)
    assert task.fired == 4  # loop kept going


def test_compute_arm_penalty_on_payload(cloud):
    def cruncher(fctx, payload):
        yield fctx.compute(base_ms=1.0, payload_kb=250.0)
        return None

    x86 = cloud.deploy_function("cx", cruncher, arch="x86")
    arm = cloud.deploy_function("ca", cruncher, arch="arm")
    cloud.env.run(until=x86.invoke(None))
    cloud.env.run(until=arm.invoke(None))
    # warm-up a second round to exclude cold start noise
    cloud.env.run(until=x86.invoke(None))
    cloud.env.run(until=arm.invoke(None))
    assert arm.durations_ms[-1] > x86.durations_ms[-1] * 1.5


def test_duplicate_deploy_rejected(cloud):
    cloud.deploy_function("dup", _echo)
    with pytest.raises(ValueError):
        cloud.deploy_function("dup", _echo)
