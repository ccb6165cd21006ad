"""Cost-model parameters (Table 4) and constants recovered from Section 5.3.4.

All prices in dollars; sizes in kB.  The per-operation storage/queue prices
are :data:`repro.cloud.pricing.AWS_PRICES`'s methods under the paper's
names; this module adds the closed-form read/write cost formulas the paper
prints and the calibrated function-cost constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cloud.pricing import AWS_PRICES, VM_DAY_RATE, PriceSheet

__all__ = [
    "CostParams",
    "AWS_COST_PARAMS",
    "w_s3", "r_s3", "w_dd", "r_dd", "q_sqs",
]


#: The paper's per-operation prices (Table 4), read off the one price table.
w_s3 = AWS_PRICES.object_write_cost   # W_S3(s): flat per operation
r_s3 = AWS_PRICES.object_read_cost    # R_S3(s): flat per operation
w_dd = AWS_PRICES.kv_write_cost       # W_DD(s): 1 kB write units
r_dd = AWS_PRICES.kv_read_cost        # R_DD(s): 4 kB consistent read units
q_sqs = AWS_PRICES.queue_cost         # Q(s): 64 kB SQS billing increments


@dataclass(frozen=True)
class CostParams:
    """End-to-end per-request cost formulas (Section 5.3.4).

    ``fn_write_std`` / ``fn_write_hybrid`` are the combined follower+leader
    charges per write at 512 MB, calibrated so that 100 K standard writes
    cost $1.12 and 100 K hybrid writes cost $0.72, exactly as the paper
    states.
    """

    prices: PriceSheet = AWS_PRICES
    fn_write_std: float = 1.2e-6
    fn_write_hybrid: float = 0.95e-6

    # ------------------------------------------------------------ requests
    def read_cost(self, size_kb: float = 1.0, hybrid: bool = False) -> float:
        """Cost_R: one read — a single user-store access."""
        return r_dd(size_kb) if hybrid else r_s3(size_kb)

    def write_cost(self, size_kb: float = 1.0, hybrid: bool = False) -> float:
        """Cost_W = 2*Q(s) + 3*W_DD(1) + R_DD(1) + W_user(s) + F_W + F_D."""
        base = 2 * q_sqs(size_kb) + 3 * w_dd(1.0) + r_dd(1.0)
        if hybrid:
            return base + w_dd(size_kb) + self.fn_write_hybrid
        return base + w_s3(size_kb) + self.fn_write_std

    # ------------------------------------------------------------ retention
    def s3_storage_month(self, gb: float) -> float:
        return gb * self.prices.object_storage_gb_month

    def dynamodb_storage_month(self, gb: float) -> float:
        return gb * self.prices.kv_storage_gb_month

    def ebs_storage_month(self, gb: float) -> float:
        return gb * self.prices.block_storage_gb_month

    # ------------------------------------------------------------ IaaS
    @staticmethod
    def zookeeper_daily(n_servers: int, vm_type: str,
                        storage_gb: float = 0.0) -> float:
        """Fixed daily price of an ensemble (VMs + optional block storage)."""
        vm = n_servers * VM_DAY_RATE[vm_type]
        ebs = n_servers * storage_gb * AWS_PRICES.block_storage_gb_month / 30.0
        return vm + ebs


AWS_COST_PARAMS = CostParams()
