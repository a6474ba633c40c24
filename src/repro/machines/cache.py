"""Cache-hierarchy effects on per-thread scan throughput.

The DNA analysis workload streams the input sequence while repeatedly
indexing a DFA transition table.  Throughput per thread therefore depends
on where the table lives:

* table fits in L1        -> full speed
* table fits in L2        -> mild penalty (L1 misses on table rows)
* table fits in L3 / ring -> visible penalty
* table spills to DRAM    -> scan becomes latency bound, large penalty

We model this as a smooth multiplicative *locality factor* in (0, 1],
computed from the table footprint and the per-core cache sizes.  Threads
sharing a core also share its private caches; the occupancy-dependent
hyper-threading yield in :mod:`repro.machines.perfmodel` already covers
the resulting contention, so here we only consider footprint.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .spec import CPUSpec, PhiSpec

# Penalty slopes chosen so a 4-state motif DFA (~1 KB) is free, a
# 10k-state DFA (~2.5 MB) costs ~15% on the host, and a DRAM-resident
# table roughly halves throughput.  The exact values only shift the
# calibration constants in perfmodel; shape is what matters.
_L1_FREE_FRACTION = 0.5
_LEVEL_PENALTY = {"l2": 0.10, "llc": 0.18, "dram": 0.50}


def _smooth_step(x: float) -> float:
    """Monotone 0->1 ramp used to blend between cache levels."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return 3 * x * x - 2 * x * x * x


@lru_cache(maxsize=4096)
def locality_factor(table_kb: float, l1_kb: float, l2_kb: float, llc_kb: float) -> float:
    """Multiplicative throughput factor in (0, 1] for a lookup table.

    Parameters are the table footprint and the capacities of the private
    L1, private (or per-core share of) L2, and last-level cache, all in KB.
    """
    if table_kb < 0:
        raise ValueError(f"table_kb must be >= 0, got {table_kb}")
    if table_kb == 0:
        return 1.0
    factor = 1.0
    # Fraction of the table that no longer fits each level.
    over_l1 = _smooth_step(
        (table_kb - _L1_FREE_FRACTION * l1_kb) / max(l1_kb, 1e-9)
    )
    over_l2 = _smooth_step((table_kb - l2_kb) / max(l2_kb, 1e-9))
    over_llc = _smooth_step((table_kb - llc_kb) / max(llc_kb, 1e-9))
    factor *= 1.0 - _LEVEL_PENALTY["l2"] * over_l1
    factor *= 1.0 - _LEVEL_PENALTY["llc"] * over_l2
    factor *= 1.0 - _LEVEL_PENALTY["dram"] * over_llc
    return max(factor, 0.05)


@lru_cache(maxsize=4096)
def host_locality_factor(table_kb: float, cpu: CPUSpec) -> float:
    """Locality factor for one host thread's view of the cache hierarchy."""
    llc_kb = cpu.l3_mb * 1024.0
    return locality_factor(table_kb, cpu.l1_kb, cpu.l2_kb, llc_kb)


@lru_cache(maxsize=4096)
def device_locality_factor(table_kb: float, device: PhiSpec) -> float:
    """Locality factor on the Phi: private L1, per-core slice of the ring L2."""
    per_core_l2_kb = device.l2_mb * 1024.0 / device.cores
    ring_l2_kb = device.l2_mb * 1024.0
    # The Phi has no L3; remote L2 slices over the ring act as the LLC.
    return locality_factor(table_kb, device.l1_kb, per_core_l2_kb, ring_l2_kb)


def working_set_kb(n_states: int, alphabet_size: int) -> float:
    """Footprint of a dense DFA transition table (4-byte entries) in KB."""
    if n_states < 0 or alphabet_size < 0:
        raise ValueError("n_states and alphabet_size must be >= 0")
    return n_states * alphabet_size * 4 / 1024.0


def log2_threads(n: int) -> float:
    """Convenience: log2 used in thread-spawn overhead modelling."""
    if n <= 0:
        raise ValueError("n must be positive")
    return math.log2(n)
