"""Work-distribution runtime: the overlapped offload execution model
(Eq. 2, host + N devices) and adaptive rebalancing.  Multi-accelerator
configurations are core :class:`~repro.core.params.SystemConfiguration`
values (one :class:`~repro.core.params.DeviceSlot` per card), executed
by :func:`run_configuration`; :func:`proportional_shares` builds the
throughput-proportional starting split.
"""

from .offload import ExecutionOutcome, resolve_simulator, run_configuration
from .schedule import AdaptiveRebalancer, RebalanceStep, proportional_shares

__all__ = [
    "ExecutionOutcome",
    "resolve_simulator",
    "run_configuration",
    "AdaptiveRebalancer",
    "RebalanceStep",
    "proportional_shares",
]
