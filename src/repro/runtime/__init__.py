"""Work-distribution runtime: divisible partitioning, the overlapped
offload execution model (Eq. 2, host + N devices), and static/adaptive
schedules.  Multi-accelerator configurations are core
:class:`~repro.core.params.SystemConfiguration` values (one
:class:`~repro.core.params.DeviceSlot` per card), executed by
:func:`run_configuration`; :func:`proportional_shares` builds the
throughput-proportional starting split.
"""

from .offload import ExecutionOutcome, resolve_simulator, run_configuration
from .partition import Partition, contiguous_spans, split_elements, split_shares
from .qilin import LinearTimeModel, QilinPartitioner, fit_linear_time
from .schedule import AdaptiveRebalancer, RebalanceStep, StaticSchedule, proportional_shares
from .taskfarm import TaskFarmResult, TaskFarmScheduler, TaskRecord

__all__ = [
    "LinearTimeModel",
    "QilinPartitioner",
    "fit_linear_time",
    "ExecutionOutcome",
    "resolve_simulator",
    "run_configuration",
    "Partition",
    "contiguous_spans",
    "split_elements",
    "split_shares",
    "AdaptiveRebalancer",
    "RebalanceStep",
    "StaticSchedule",
    "proportional_shares",
    "TaskFarmResult",
    "TaskFarmScheduler",
    "TaskRecord",
]
