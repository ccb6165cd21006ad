"""Unit tests for latency models and calibration profiles."""

import dataclasses
import math
import random

import pytest

from repro.cloud.calibration import aws_profile, gcp_profile
from repro.cloud.latency import Fixed, SizeAware
from repro.sim.rng import lognormal_from_percentiles, percentile


def test_fixed_model():
    m = Fixed(5.0)
    rng = random.Random(1)
    assert m.sample(rng) == 5.0
    assert m.median(100.0) == 5.0


def test_lognormal_fit_roundtrip():
    mu, sigma = lognormal_from_percentiles(10.0, 30.0)
    import math
    assert math.exp(mu) == pytest.approx(10.0)
    assert math.exp(mu + 2.3263478740408408 * sigma) == pytest.approx(30.0)


def test_lognormal_fit_validation():
    with pytest.raises(ValueError):
        lognormal_from_percentiles(0, 10)
    with pytest.raises(ValueError):
        lognormal_from_percentiles(10, 5)


def test_size_aware_percentiles_match_calibration():
    """Sampled p50/p99 must land near the fitted targets."""
    m = SizeAware(p50_ms=4.35, p99_ms=6.33, outlier_p=0.0)
    rng = random.Random(7)
    samples = [m.sample(rng) for _ in range(20_000)]
    assert percentile(samples, 50) == pytest.approx(4.35, rel=0.05)
    assert percentile(samples, 99) == pytest.approx(6.33, rel=0.10)


def test_size_aware_bandwidth_term():
    m = SizeAware(p50_ms=4.0, p99_ms=6.0, per_kb_ms=1.0, outlier_p=0.0)
    rng = random.Random(3)
    small = sorted(m.sample(rng, 0.0) for _ in range(2000))
    large = sorted(m.sample(rng, 64.0) for _ in range(2000))
    assert large[1000] - small[1000] == pytest.approx(64.0, rel=0.1)


def test_size_aware_min_clamp():
    m = SizeAware(p50_ms=4.0, p99_ms=40.0, min_ms=3.5)
    rng = random.Random(5)
    assert min(m.sample(rng) for _ in range(5000)) >= 3.5


def test_size_aware_outliers_produce_heavy_max():
    m = SizeAware(p50_ms=4.0, p99_ms=6.0, outlier_p=0.01, outlier_scale=10.0)
    rng = random.Random(11)
    samples = [m.sample(rng) for _ in range(5000)]
    assert max(samples) > 5 * percentile(samples, 99)


def test_median_is_deterministic():
    m = SizeAware(p50_ms=11.0, p99_ms=25.0, per_kb_ms=0.04)
    assert m.median(100.0) == pytest.approx(15.0)


def test_profiles_are_complete_and_distinct():
    aws = aws_profile()
    gcp = gcp_profile()
    assert aws.name == "aws" and gcp.name == "gcp"
    # the calibrated orderings the evaluation depends on
    assert aws.invoke_fifo.median() < aws.invoke_direct.median()   # Table 7a
    assert gcp.invoke_fifo.median() > gcp.invoke_direct.median()   # Table 7c
    assert gcp.kv_conditional_extra_ms > 5 * aws.kv_conditional_extra_ms
    assert aws.obj_read.median() < gcp.obj_read.median()           # Figure 8
    assert aws.kv_item_limit_kb == 400.0
    assert gcp.kv_item_limit_kb == 1024.0


def test_profile_zk_models_sub_ms_reads():
    aws = aws_profile()
    assert aws.zk_read.median(1.0) < 1.5
    assert aws.zk_write.median(1.0) < 5.0


# --------------------------------------------------------- draw identity
def _reference_sample(model, rng, size_kb):
    """``SizeAware.sample`` as written on ``random.gauss``: what every
    stream drew before the normal draw was inlined.  Compared against the
    running interpreter, so a change to its ``gauss`` fails here first."""
    _mu, sigma = lognormal_from_percentiles(model.p50_ms, model.p99_ms)
    noise = math.exp(rng.gauss(0.0, sigma)) if sigma > 0 else 1.0
    value = model.p50_ms * noise + model.per_kb_ms * size_kb * noise
    if model.outlier_p > 0 and rng.random() < model.outlier_p:
        value *= model.outlier_scale
    return max(model.min_ms, value)


def _draw_twins(model, size_kb, draws=10_000, seed=2024):
    """Draw from ``model`` and from the reference on twin streams, with
    foreign ``gauss``/``random`` calls interleaved on each so the shared
    ``gauss_next`` cache is handed back and forth; return both streams."""
    ours, ref = random.Random(seed), random.Random(seed)
    for i in range(draws):
        assert model.sample(ours, size_kb) == _reference_sample(model, ref, size_kb), i
        if i % 7 == 3:  # another caller's normal (3.10's gauss has no defaults)
            assert ours.gauss(0.0, 1.0) == ref.gauss(0.0, 1.0)
        if i % 11 == 5:
            assert ours.random() == ref.random()
    return ours, ref


def _profile_models():
    for profile in (aws_profile(), gcp_profile()):
        for f in dataclasses.fields(profile):
            model = getattr(profile, f.name)
            if isinstance(model, SizeAware):
                yield pytest.param(model, id=f"{profile.name}.{f.name}")


@pytest.mark.parametrize("model", list(_profile_models()))
def test_every_profile_model_draws_what_random_gauss_drew(model):
    for size_kb in (0.0, 1.0, 64.0):
        ours, ref = _draw_twins(model, size_kb)
        assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("model", [
    SizeAware(p50_ms=5.0, p99_ms=5.0),                   # sigma == 0: no normal
    SizeAware(p50_ms=4.0, p99_ms=6.0, outlier_p=0.0),    # no outlier draw
    SizeAware(p50_ms=5.0, p99_ms=5.0, outlier_p=0.0),    # no draw at all
], ids=["sigma0", "no-outlier", "no-draw"])
def test_a_model_that_skips_a_draw_leaves_the_stream_where_gauss_did(model):
    ours, ref = _draw_twins(model, 1.0, draws=2_000)
    assert ours.getstate() == ref.getstate()
    if model.p50_ms == model.p99_ms and model.outlier_p == 0.0:
        untouched = random.Random(7)
        state = untouched.getstate()
        model.sample(untouched, 64.0)
        assert untouched.getstate() == state
