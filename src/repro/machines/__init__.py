"""Heterogeneous-platform substrate: specs, topology, affinity, perf model.

This package replaces the paper's physical node (2x Intel Xeon E5-2695v2
+ Intel Xeon Phi 7120P, Table III) with a calibrated analytic model; see
DESIGN.md for the substitution rationale and calibration targets.
"""

from .affinity import (
    DEVICE_AFFINITIES,
    HOST_AFFINITIES,
    affinity_index,
    device_placement_stats,
    host_placement_stats,
    place_device_threads,
    place_host_threads,
)
from .interconnect import OffloadCost, offload_cost, transfer_time_s
from .perfmodel import (
    DNA_SCAN,
    DevicePerformanceModel,
    HostPerformanceModel,
    WorkloadProfile,
)
from .registry import (
    DEFAULT_PLATFORM_KEY,
    DUALPHI,
    FATHOST,
    MANYCORE,
    MIXEDPHI,
    PHI_5110P,
    PHI_5110P_PERF,
    PLATFORMS,
    QUADPHI,
    SLOWLINK,
    all_platforms,
    get_platform,
    resolve_platform,
    platform_names,
    register_platform,
)
from .simulator import Measurement, PlatformSimulator
from .spec import (
    DEFAULT_DEVICE_PERF,
    DEFAULT_HOST_PERF,
    EMIL,
    CPUSpec,
    PCIeSpec,
    PerfProfile,
    PhiSpec,
    PlatformSpec,
)
from .topology import PlacementStats, Slot, placement_stats

__all__ = [
    "DEVICE_AFFINITIES",
    "HOST_AFFINITIES",
    "affinity_index",
    "device_placement_stats",
    "host_placement_stats",
    "place_device_threads",
    "place_host_threads",
    "OffloadCost",
    "offload_cost",
    "transfer_time_s",
    "DNA_SCAN",
    "DevicePerformanceModel",
    "HostPerformanceModel",
    "WorkloadProfile",
    "Measurement",
    "PlatformSimulator",
    "EMIL",
    "CPUSpec",
    "PCIeSpec",
    "PhiSpec",
    "PlatformSpec",
    "PerfProfile",
    "DEFAULT_HOST_PERF",
    "DEFAULT_DEVICE_PERF",
    "DEFAULT_PLATFORM_KEY",
    "DUALPHI",
    "FATHOST",
    "MANYCORE",
    "MIXEDPHI",
    "PHI_5110P",
    "PHI_5110P_PERF",
    "PLATFORMS",
    "QUADPHI",
    "SLOWLINK",
    "all_platforms",
    "get_platform",
    "resolve_platform",
    "platform_names",
    "register_platform",
    "PlacementStats",
    "Slot",
    "placement_stats",
]
