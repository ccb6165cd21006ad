"""Unit tests for price sheets and the cost meter."""

import pytest

from repro.cloud.pricing import (
    AWS_PRICES,
    GCP_PRICES,
    VM_DAY_RATE,
    CostMeter,
)


# ------------------------------------------------------------- AWS sheet
def test_aws_object_prices_flat():
    assert AWS_PRICES.object_write_cost(1) == AWS_PRICES.object_write_cost(500)
    assert AWS_PRICES.object_read_cost(0.001) == 4e-7


def test_aws_kv_write_units_round_up():
    assert AWS_PRICES.kv_write_cost(0.5) == 1.25e-6
    assert AWS_PRICES.kv_write_cost(1.0) == 1.25e-6
    assert AWS_PRICES.kv_write_cost(1.1) == 2 * 1.25e-6
    assert AWS_PRICES.kv_write_cost(64) == 64 * 1.25e-6


def test_aws_kv_read_units_and_eventual_discount():
    assert AWS_PRICES.kv_read_cost(4.0) == 0.25e-6
    assert AWS_PRICES.kv_read_cost(4.1) == 2 * 0.25e-6
    assert AWS_PRICES.kv_read_cost(4.0, consistent=False) == 0.125e-6


def test_aws_queue_chunks():
    assert AWS_PRICES.queue_cost(1) == 0.5e-6
    assert AWS_PRICES.queue_cost(64) == 0.5e-6
    assert AWS_PRICES.queue_cost(64.1) == 1.0e-6
    assert AWS_PRICES.queue_cost(250) == 2.0e-6


def test_aws_fn_cost_components():
    # 1 GB for 1 s = 1.66667e-5 plus the request fee
    cost = AWS_PRICES.fn_cost(1024, 1000.0)
    assert cost == pytest.approx(1.66667e-5 + 0.2e-6)
    # ARM is ~20% cheaper per GB-second
    arm = AWS_PRICES.fn_cost(1024, 1000.0, arch="arm")
    assert arm < cost
    assert arm == pytest.approx(1.33334e-5 + 0.2e-6)


# ------------------------------------------------------------- GCP sheet
def test_gcp_kv_prices_size_independent():
    """Section 4.5: Datastore ops bill per operation, not per kB."""
    assert GCP_PRICES.kv_write_cost(0.1) == GCP_PRICES.kv_write_cost(400)
    assert GCP_PRICES.kv_read_cost(0.1) == GCP_PRICES.kv_read_cost(400)
    # the 2.4x / 1.44x relations vs DynamoDB's <=1 kB prices
    assert GCP_PRICES.kv_read_cost(1) == pytest.approx(2.4 * 0.25e-6)
    assert GCP_PRICES.kv_write_cost(1) == pytest.approx(1.44 * 1.25e-6)


def test_gcp_queue_minimum_1kb():
    """Pub/Sub bills at least 1 kB per message, $40/TB each way."""
    tiny = GCP_PRICES.queue_cost(0.0625)
    assert tiny == GCP_PRICES.queue_cost(1.0)
    assert GCP_PRICES.queue_cost(10) == pytest.approx(10 * 2 * 4.0e-8)
    # small messages are several times cheaper than SQS (paper: 6.7x)
    assert AWS_PRICES.queue_cost(0.0625) / tiny > 4


def test_vm_day_rates():
    assert VM_DAY_RATE["t3.small"] == 0.5
    assert VM_DAY_RATE["t3.medium"] == 1.0
    assert VM_DAY_RATE["t3.large"] == 2.0


# ------------------------------------------------------------- CostMeter
def test_meter_accumulates_and_groups():
    meter = CostMeter()
    meter.charge("s3", "write", 5e-6)
    meter.charge("s3", "write", 5e-6)
    meter.charge("s3", "read", 4e-7)
    meter.charge("fn:leader", "invoke", 1e-6)
    assert meter.total == pytest.approx(1.04e-5 + 1e-6)
    by = meter.by_service()
    assert by["s3"] == pytest.approx(1.04e-5)
    assert meter.service_total("fn:leader") == pytest.approx(1e-6)
    lines = meter.lines()
    assert [(l.service, l.operation, l.count) for l in lines] == [
        ("fn:leader", "invoke", 1), ("s3", "read", 1), ("s3", "write", 2)]


def test_meter_snapshot_delta():
    meter = CostMeter()
    meter.charge("s3", "write", 1e-6)
    before = meter.snapshot()
    meter.charge("s3", "write", 3e-6)
    meter.charge("sqs", "send", 0.5e-6)
    delta = meter.delta(before)
    assert delta["s3"] == pytest.approx(3e-6)
    assert delta["sqs"] == pytest.approx(0.5e-6)
