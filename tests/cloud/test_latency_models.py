"""Unit tests for latency models and calibration profiles."""

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
