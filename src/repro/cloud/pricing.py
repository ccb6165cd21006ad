"""Price sheets and cost metering.

All dollar constants are the ones the paper publishes or that we recovered
from its arithmetic (see DESIGN.md "Cost-model constants"):

* Table 4 gives the per-operation storage and queue prices;
* Section 5.3.4 gives VM day-rates and block-storage prices;
* Section 4.5 gives the GCP price relations (Datastore 2.4x/1.44x DynamoDB
  reads/writes, Pub/Sub $40/TB with a 1 kB minimum).

The :class:`CostMeter` accumulates per-service line items during a simulated
run so that benchmark harnesses can print the cost-split bars of Figures 9
and 11 and the dollar totals quoted in Section 5.3.4.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["AWS_PRICES", "GCP_PRICES", "PriceSheet", "CostMeter", "VM_DAY_RATE"]


# Daily on-demand price of the EC2 instance types used in Section 5.3.4.
# These reproduce Figure 14's ratios exactly (3 x t3.small = $1.5/day).
VM_DAY_RATE: Dict[str, float] = {
    "t3.small": 0.5,
    "t3.medium": 1.0,
    "t3.large": 2.0,
    "t3.2xlarge": 8.0,
    "e2-small": 0.5,
    "e2-medium": 1.0,
}


@dataclass(frozen=True)
class PriceSheet:
    """Per-operation and per-retention prices for one cloud provider."""

    name: str
    # Object storage (S3 / Cloud Storage): flat per-operation.
    object_write: float = 5e-6
    object_read: float = 4e-7
    object_storage_gb_month: float = 0.023
    # Key-value storage (DynamoDB / Datastore).
    kv_write_unit: float = 1.25e-6      # per write unit
    kv_write_unit_kb: float = 1.0       # kB covered by one write unit
    kv_read_unit: float = 0.25e-6       # per strongly consistent read unit
    kv_read_unit_kb: float = 4.0        # kB covered by one read unit
    kv_eventual_read_discount: float = 0.5
    kv_size_billed: bool = True         # GCP Datastore bills per op, not per kB
    kv_storage_gb_month: float = 0.25
    # Queue (SQS / Pub/Sub).
    queue_message: float = 0.5e-6       # per billed chunk
    queue_chunk_kb: float = 64.0        # SQS bills in 64 kB increments
    queue_min_kb: float = 0.0           # Pub/Sub bills at least 1 kB
    queue_per_kb: float = 0.0           # Pub/Sub: $40/TB ~= 4e-8 per kB (x2 paths)
    # Functions (Lambda / Cloud Functions).
    fn_gb_second: float = 1.66667e-5
    fn_request: float = 0.2e-6
    fn_gb_second_arm: float = 1.33334e-5
    # Block storage for the IaaS baseline.
    block_storage_gb_month: float = 0.08

    # ---------------------------------------------------------------- ops
    def object_write_cost(self, size_kb: float) -> float:
        """S3-style write: flat per operation, any size."""
        return self.object_write

    def object_read_cost(self, size_kb: float) -> float:
        return self.object_read

    def kv_write_cost(self, size_kb: float) -> float:
        if not self.kv_size_billed:
            return self.kv_write_unit
        units = max(1, math.ceil(max(size_kb, 1e-9) / self.kv_write_unit_kb))
        return units * self.kv_write_unit

    def kv_read_cost(self, size_kb: float, consistent: bool = True) -> float:
        if not self.kv_size_billed:
            price = self.kv_read_unit
        else:
            units = max(1, math.ceil(max(size_kb, 1e-9) / self.kv_read_unit_kb))
            price = units * self.kv_read_unit
        if not consistent:
            price *= self.kv_eventual_read_discount
        return price

    def queue_cost(self, size_kb: float) -> float:
        billed_kb = max(size_kb, self.queue_min_kb)
        cost = 0.0
        if self.queue_message:
            chunks = max(1, math.ceil(max(billed_kb, 1e-9) / self.queue_chunk_kb))
            cost += chunks * self.queue_message
        if self.queue_per_kb:
            cost += billed_kb * self.queue_per_kb
        return cost

    def fn_cost(self, memory_mb: int, duration_ms: float, arch: str = "x86") -> float:
        rate = self.fn_gb_second_arm if arch == "arm" else self.fn_gb_second
        gb_s = (memory_mb / 1024.0) * (duration_ms / 1000.0)
        return gb_s * rate + self.fn_request


AWS_PRICES = PriceSheet(name="aws")

# GCP: Datastore charges per operation independent of size (Section 4.5):
# reads 2.4x the DynamoDB <=1kB price, writes 1.44x.  Pub/Sub charges $40/TB
# on both the publish and the delivery path with a 1 kB minimum per message.
GCP_PRICES = PriceSheet(
    name="gcp",
    kv_write_unit=1.44 * 1.25e-6,
    kv_read_unit=2.4 * 0.25e-6,
    kv_size_billed=False,
    queue_message=0.0,
    queue_per_kb=2 * 4.0e-8,
    queue_min_kb=1.0,
    queue_chunk_kb=1.0,
    fn_gb_second=2.5e-5,
)


@dataclass
class CostLine:
    """One metered charge."""

    service: str      # e.g. "s3", "dynamodb", "sqs", "fn:follower"
    operation: str    # e.g. "write", "read", "invoke"
    count: int = 0
    dollars: float = 0.0


class CostMeter:
    """Accumulates charges, grouped by (service, operation)."""

    def __init__(self) -> None:
        self._lines: Dict[Tuple[str, str], CostLine] = {}

    def charge(self, service: str, operation: str, dollars: float, count: int = 1) -> None:
        key = (service, operation)
        line = self._lines.get(key)
        if line is None:
            line = self._lines[key] = CostLine(service, operation)
        line.count += count
        line.dollars += dollars

    @property
    def total(self) -> float:
        return sum(line.dollars for line in self._lines.values())

    def by_service(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for line in self._lines.values():
            out[line.service] += line.dollars
        return dict(out)

    def lines(self) -> List[CostLine]:
        return sorted(self._lines.values(), key=lambda l: (l.service, l.operation))

    def service_total(self, service: str) -> float:
        return sum(l.dollars for l in self._lines.values() if l.service == service)

    def snapshot(self) -> Dict[str, float]:
        """by_service() copy, convenient for before/after deltas."""
        return self.by_service()

    def delta(self, before: Dict[str, float]) -> Dict[str, float]:
        after = self.by_service()
        keys = set(before) | set(after)
        return {k: after.get(k, 0.0) - before.get(k, 0.0) for k in keys}
