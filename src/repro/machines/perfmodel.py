"""Analytic execution-time model for the host CPUs and the Xeon Phi.

This is the reproduction's substitute for the paper's physical *Emil*
node (see DESIGN.md section 2).  The optimizer and the ML evaluator only
ever consume ``(configuration -> execution time)`` samples, so what must
be preserved is the *decision landscape*, not absolute nanoseconds:

* host scan throughput saturates near 5.3 GB/s as threads increase
  (paper Fig. 5: 6/12/24/48-thread curves at 2.4/1.5/1.0/0.9 s for the
  3.1 GB genome);
* the device needs hundreds of threads to be competitive and spans
  0.9-42 s across 2-240 threads (paper Fig. 6 and section IV-B);
* offload latency + PCIe transfer make CPU-only optimal for small
  inputs (paper Fig. 2a) while 60/40-70/30 splits win for large ones
  (Fig. 2b), shifting toward the device when host threads are scarce
  (Fig. 2c);
* the resulting best heterogeneous configuration beats host-only by
  ~1.7-1.95x and device-only by ~2.0-2.36x (Tables VIII-IX).

The model composes, per side:

``T = spawn(n) + work / rate``  with
``rate = harmonic(locality * affinity * sum_cores ht_yield(occ) * r1,
                  scan_roofline(placement))``

All calibration constants are module-level and documented so ablation
benchmarks can perturb them; they are *Emil's* calibration.  Other
platforms override them through the :class:`~repro.machines.spec.PerfProfile`
pair carried by their :class:`~repro.machines.spec.PlatformSpec`
(``host_perf`` / ``device_perf``), which both model classes below read —
the module constants double as the default profile values, asserted in
sync by the spec tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import (
    DEVICE_AFFINITIES,
    HOST_AFFINITIES,
    device_placement_stats,
    host_placement_stats,
)
from .cache import device_locality_factor, host_locality_factor, log2_threads
from .interconnect import offload_cost, transfer_time_s
from .memory import (
    combine_rates_array,
    device_scan_roofline_mbs,
    host_scan_roofline_mbs_array,
)
from .spec import EMIL, PlatformSpec
from .topology import PlacementStats, sockets_used_column

# --- calibration constants -------------------------------------------------

#: Host single-thread DFA scan rate (MB/s): one Ivy Bridge core at turbo
#: sustains ~280 MB/s of dependent table lookups over a streamed input.
HOST_THREAD_RATE_MBS = 280.0
#: Device single-thread rate: one in-order Phi core at 1.3 GHz is roughly
#: 7.4x slower per thread than the host (paper section II-A).
DEVICE_THREAD_RATE_MBS = 37.7

#: Hyper-threading yield: total throughput of one core running ``k``
#: hardware threads, relative to one thread.  The host's 2-way SMT hides
#: some lookup latency (+50%); the Phi's 4-way round-robin issue needs at
#: least two threads per core to even reach full single-issue rate.
HOST_HT_YIELD = {1: 1.0, 2: 1.5}
DEVICE_HT_YIELD = {1: 1.0, 2: 1.55, 3: 1.95, 4: 2.3}

#: Fork-join/spawn cost per side: a fixed serial part plus a tree-barrier
#: term growing with log2(threads).  The Phi's slow scalar core makes its
#: runtime an order of magnitude slower.
HOST_SPAWN_BASE_S = 0.002
HOST_SPAWN_PER_LOG2_S = 0.0005
DEVICE_SPAWN_BASE_S = 0.010
DEVICE_SPAWN_PER_LOG2_S = 0.003

#: Affinity rate multipliers (placement-independent part).  ``compact``
#: improves private-cache sharing slightly; OS scheduling ("none") costs
#: a little in migrations.  The big effects (socket count, cores used)
#: come out of the placement statistics, not these factors.
HOST_AFFINITY_RATE = {"none": 0.97, "scatter": 1.0, "compact": 1.05}
DEVICE_AFFINITY_RATE = {"balanced": 1.0, "scatter": 0.98, "compact": 1.02}


@dataclass(frozen=True)
class WorkloadProfile:
    """Per-workload calibration handle.

    ``table_kb`` is the DFA transition-table footprint (couples the DNA
    substrate's automaton size to scan throughput); ``host_rate_mbs`` /
    ``device_rate_mbs`` are single-thread scan rates for this workload;
    ``result_mb`` sizes the device->host result transfer;
    ``scan_efficiency_scale`` multiplies the platform's scan-roofline
    efficiency (match-dense workloads stream result records through the
    memory system and erode the roofline; 1.0 = the paper's workload).

    Profiles are usually derived from a named
    :class:`~repro.dna.workloads.WorkloadSpec` rather than written by
    hand; this class stays the low-level calibration handle.
    """

    name: str = "dna-scan"
    host_rate_mbs: float = HOST_THREAD_RATE_MBS
    device_rate_mbs: float = DEVICE_THREAD_RATE_MBS
    table_kb: float = 1.0
    result_mb: float = 0.001
    transfer_overlap: float = 0.6
    scan_efficiency_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.host_rate_mbs <= 0 or self.device_rate_mbs <= 0:
            raise ValueError("scan rates must be positive")
        if self.table_kb < 0:
            raise ValueError("table_kb must be >= 0")
        if self.scan_efficiency_scale <= 0:
            raise ValueError(
                f"scan_efficiency_scale must be positive, got {self.scan_efficiency_scale}"
            )


#: Default workload: the paper's DNA sequence analysis (small motif DFA).
DNA_SCAN = WorkloadProfile()


def _aggregate_linear_rate(
    stats: PlacementStats, thread_rate_mbs: float, ht_yield: dict[int, float]
) -> float:
    """Sum of per-core throughputs given the occupancy histogram."""
    total = 0.0
    for occupancy, n_cores in stats.threads_per_core:
        yield_factor = ht_yield.get(occupancy)
        if yield_factor is None:
            # Interpolate beyond the table (can only happen for exotic specs).
            yield_factor = max(ht_yield.values()) * occupancy / max(ht_yield)
        total += n_cores * yield_factor * thread_rate_mbs
    return total


def _side_columns(
    threads, affinities, mb, domain: tuple[str, ...], side: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize one side's configuration columns for the batch path.

    ``affinities`` is either an integer code array (indices into
    ``domain``, the feature-encoding order of
    :mod:`repro.machines.affinity`) or a sequence of affinity names.
    """
    threads_arr = np.asarray(threads, dtype=np.int64)
    mb_arr = np.asarray(mb, dtype=np.float64)
    if isinstance(affinities, np.ndarray) and affinities.dtype.kind in "iu":
        codes = affinities.astype(np.int64, copy=False)
        if codes.size and (codes.min() < 0 or codes.max() >= len(domain)):
            raise ValueError(f"{side} affinity codes must index into {domain}")
    else:
        index = {name: i for i, name in enumerate(domain)}
        try:
            codes = np.fromiter(
                (index[a] for a in affinities), dtype=np.int64, count=len(affinities)
            )
        except KeyError as exc:
            raise ValueError(
                f"unknown {side} affinity {exc.args[0]!r}; expected one of {domain}"
            ) from None
    if not (threads_arr.shape == codes.shape == mb_arr.shape):
        raise ValueError("threads, affinities, and mb must have matching shapes")
    if np.any(mb_arr < 0):
        raise ValueError("mb must be >= 0")
    return threads_arr, codes, mb_arr


#: Key packing base for the per-model (threads, affinity) rate tables;
#: both affinity domains have 3 entries, so 8 leaves headroom.
_KEY_BASE = 8


class _SidePerformanceModel:
    """Shared columnar machinery of the per-side performance models.

    Subclasses describe one side of a platform (its affinity domain,
    placement function, and roofline) and set the calibration fields in
    ``__init__``; everything else — the per-``(threads, affinity)``
    ``(rate, spawn)`` key table, the scalar :meth:`time`, and the
    array-native :meth:`times_batch` — lives here.  The pair domain is
    tiny (18/27 combinations on the paper's grids), so each key
    resolves its placement and rate exactly once; scalar and batch
    callers read the same table, making their results bit-identical by
    construction.
    """

    _affinities: tuple[str, ...] = ()
    _side = ""

    # Calibration fields assigned by subclass __init__.
    platform: PlatformSpec
    workload: WorkloadProfile

    def placement(self, threads: int, affinity: str) -> PlacementStats:
        """Placement statistics for one side's configuration."""
        raise NotImplementedError

    def _roofline_array(self, stats: list[PlacementStats]) -> np.ndarray:
        """Scan-roofline rates (MB/s) for a list of placements."""
        raise NotImplementedError

    # -- the per-(threads, affinity) rate/spawn table -----------------------

    def _fill_keys(self, pairs: list[tuple[int, int]]) -> None:
        """Resolve missing (threads, affinity-code) keys into the table.

        Rates are composed in array form — linear thread scaling times
        locality and affinity factors, harmonically blended with the
        scan roofline — using the exact elementwise operation order of
        the historical scalar path (all IEEE-754 basic operations, so
        per-key results are bit-identical to it).
        """
        names = [self._affinities[c] for _, c in pairs]
        stats = [self.placement(t, name) for (t, _), name in zip(pairs, names)]
        lin = np.array(
            [_aggregate_linear_rate(s, self._thread_rate, self._ht_yield) for s in stats]
        )
        aff = np.array([self._affinity_rate.get(name, 1.0) for name in names])
        roof = self._roofline_array(stats)
        rates = combine_rates_array(lin * (self._locality * aff), roof)
        for (t, c), rate in zip(pairs, rates):
            spawn = self.perf.spawn_base_s + self.perf.spawn_per_log2_s * log2_threads(t)
            self._keys[(t, c)] = (float(rate), spawn)

    def _code(self, affinity: str) -> int:
        try:
            return self._affinities.index(affinity)
        except ValueError:
            raise ValueError(
                f"unknown {self._side} affinity {affinity!r}; "
                f"expected one of {self._affinities}"
            ) from None

    def _key(self, threads: int, code: int) -> tuple[float, float]:
        hit = self._keys.get((threads, code))
        if hit is None:
            self._fill_keys([(threads, code)])
            hit = self._keys[(threads, code)]
        return hit

    def _gather(
        self, threads_arr: np.ndarray, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-item (rates, spawns) columns via the unique-key table."""
        packed = threads_arr * _KEY_BASE + codes
        uniq, inverse = np.unique(packed, return_inverse=True)
        pairs = [divmod(int(p), _KEY_BASE) for p in uniq]
        missing = [pair for pair in pairs if pair not in self._keys]
        if missing:
            self._fill_keys(missing)
        rate_u = np.array([self._keys[pair][0] for pair in pairs])
        spawn_u = np.array([self._keys[pair][1] for pair in pairs])
        return rate_u[inverse], spawn_u[inverse]

    # -- public protocol ----------------------------------------------------

    def rate_mbs(self, threads: int, affinity: str) -> float:
        """Aggregate scan rate (MB/s) of ``threads`` threads on this side."""
        return self._key(threads, self._code(affinity))[0]

    def time(self, threads: int, affinity: str, mb: float) -> float:
        """Seconds to scan ``mb`` megabytes on this side (0 MB -> 0 s)."""
        if mb < 0:
            raise ValueError(f"mb must be >= 0, got {mb}")
        if mb == 0:
            return 0.0
        rate, spawn = self._key(threads, self._code(affinity))
        return spawn + mb / rate

    def times_batch(self, threads, affinities, mb) -> np.ndarray:
        """Array-native :meth:`time` over whole configuration columns.

        ``threads``/``mb`` are array-likes of equal length; ``affinities``
        is a name sequence or an integer code array (see
        :func:`~repro.machines.affinity.affinity_index` order).  Each
        element is bit-identical to the scalar :meth:`time` call.
        """
        threads_arr, codes, mb_arr = _side_columns(
            threads, affinities, mb, self._affinities, self._side
        )
        rates, spawns = self._gather(threads_arr, codes)
        return np.where(mb_arr == 0.0, 0.0, spawns + mb_arr / rates)


class HostPerformanceModel(_SidePerformanceModel):
    """Noiseless execution-time model for the host side.

    All calibration comes from ``platform.host_perf`` (see
    :class:`~repro.machines.spec.PerfProfile`); with the default Emil
    profile this reproduces the historical module constants exactly.
    Scalar :meth:`time` and array-native :meth:`times_batch` share one
    per-``(threads, affinity)`` key table (see
    :class:`_SidePerformanceModel`), so they are bit-identical.
    """

    _affinities = HOST_AFFINITIES
    _side = "host"

    def __init__(
        self,
        platform: PlatformSpec = EMIL,
        workload: WorkloadProfile = DNA_SCAN,
    ) -> None:
        self.platform = platform
        self.workload = workload
        self.perf = platform.host_perf
        self._locality = host_locality_factor(workload.table_kb, platform.cpu)
        self._ht_yield = self.perf.ht_yield_table
        self._affinity_rate = self.perf.affinity_rates
        self._thread_rate = workload.host_rate_mbs * self.perf.rate_scale
        #: (threads, affinity code) -> (rate_mbs, spawn_s)
        self._keys: dict[tuple[int, int], tuple[float, float]] = {}

    def placement(self, threads: int, affinity: str) -> PlacementStats:
        """Placement statistics for a host configuration."""
        return host_placement_stats(threads, affinity, self.platform)

    def _roofline_array(self, stats: list[PlacementStats]) -> np.ndarray:
        return host_scan_roofline_mbs_array(
            self.platform,
            sockets_used_column(stats),
            efficiency=self.perf.scan_efficiency,
            workload_scale=self.workload.scan_efficiency_scale,
        )


class DevicePerformanceModel(_SidePerformanceModel):
    """Noiseless execution-time model for the co-processor side.

    Device time includes the offload region's exposed cost (launch
    latency plus the non-overlapped slice of the PCIe input transfer),
    because that is what a host-side timer around ``#pragma offload``
    observes — and what the paper's device measurements contain.

    Shares the columnar key-table machinery of
    :class:`_SidePerformanceModel`; only the placement, the
    (placement-free) roofline, and the offload-transfer composition
    differ.  ``device`` selects which card of a multi-accelerator node
    the model times (cards may differ in spec and calibration, see
    :attr:`~repro.machines.spec.PlatformSpec.devices`); the default 0 is
    the primary card and reproduces the historical single-device model
    bit for bit.
    """

    _affinities = DEVICE_AFFINITIES
    _side = "device"

    def __init__(
        self,
        platform: PlatformSpec = EMIL,
        workload: WorkloadProfile = DNA_SCAN,
        *,
        device: int = 0,
    ) -> None:
        self.platform = platform
        self.workload = workload
        self.device_index = device
        self.device_spec = platform.device_spec_for(device)
        self.perf = platform.device_perf_for(device)
        self._locality = device_locality_factor(workload.table_kb, self.device_spec)
        self._ht_yield = self.perf.ht_yield_table
        self._affinity_rate = self.perf.affinity_rates
        self._thread_rate = workload.device_rate_mbs * self.perf.rate_scale
        self._roofline = device_scan_roofline_mbs(
            self.device_spec,
            efficiency=self.perf.scan_efficiency,
            workload_scale=workload.scan_efficiency_scale,
        )
        self._keys = {}

    def placement(self, threads: int, affinity: str) -> PlacementStats:
        """Placement statistics for a device configuration."""
        return device_placement_stats(threads, affinity, self.device_spec)

    def _roofline_array(self, stats: list[PlacementStats]) -> np.ndarray:
        # The ring interconnect makes the device roofline placement-free.
        return np.full(len(stats), self._roofline)

    def compute_time(self, threads: int, affinity: str, mb: float) -> float:
        """Kernel-only seconds (no offload cost); 0 MB -> 0 s."""
        return _SidePerformanceModel.time(self, threads, affinity, mb)

    def time(self, threads: int, affinity: str, mb: float) -> float:
        """Seconds for the full offload region covering ``mb`` megabytes."""
        if mb == 0:
            return 0.0
        cost = offload_cost(
            mb,
            self.platform.interconnect,
            overlap_factor=self.workload.transfer_overlap,
            result_mb=self.workload.result_mb,
        )
        return cost.total_exposed_s + self.compute_time(threads, affinity, mb)

    def times_batch(self, threads, affinities, mb) -> np.ndarray:
        """Array-native :meth:`time` over whole offload-region columns.

        Composes the exposed offload cost and the kernel time with the
        exact elementwise operation order of the scalar path, so each
        element is bit-identical to :meth:`time`.
        """
        threads_arr, codes, mb_arr = _side_columns(
            threads, affinities, mb, self._affinities, self._side
        )
        rates, spawns = self._gather(threads_arr, codes)
        link = self.platform.interconnect
        overlap = self.workload.transfer_overlap
        if not 0.0 <= overlap <= 1.0:
            raise ValueError(f"overlap_factor must be in [0, 1], got {overlap}")
        result_wire = transfer_time_s(self.workload.result_mb, link)
        exposed = mb_arr / (link.effective_bandwidth_gbs * 1024.0) * (1.0 - overlap)
        exposed = exposed + result_wire
        total = (link.latency_s + exposed) + (spawns + mb_arr / rates)
        return np.where(mb_arr == 0.0, 0.0, total)
