"""Qilin-style adaptive-mapping baseline (paper related work, section V).

Qilin [30] profiles a kernel on a few input sizes per device, fits
linear execution-time models ``T(m) = a + b * m``, and solves for the
split that equalizes the two sides analytically — no search, no global
model.  The paper positions its approach against Qilin; this module
implements the baseline so the comparison can be run (bench:
``test_bench_baseline_qilin``).

The baseline fixes thread counts/affinities at their maxima (Qilin does
not tune them), which is exactly the gap SAML's larger configuration
space exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.params import SystemConfiguration
from repro.machines.simulator import PlatformSimulator
from repro.runtime import resolve_simulator


@dataclass(frozen=True)
class LinearTimeModel:
    """``T(m) = intercept + slope * m`` fitted from profiling runs."""

    intercept: float
    slope: float

    def time(self, mb: float) -> float:
        """Predicted seconds for ``mb`` megabytes (clipped at >= 0)."""
        return max(0.0, self.intercept + self.slope * mb)


def fit_linear_time(sizes_mb: np.ndarray, times_s: np.ndarray) -> LinearTimeModel:
    """Least-squares line through (size, time) profiling points."""
    sizes_mb = np.asarray(sizes_mb, dtype=np.float64)
    times_s = np.asarray(times_s, dtype=np.float64)
    if len(sizes_mb) < 2:
        raise ValueError("need at least two profiling points")
    if len(sizes_mb) != len(times_s):
        raise ValueError("sizes and times length mismatch")
    slope, intercept = np.polyfit(sizes_mb, times_s, 1)
    return LinearTimeModel(intercept=float(intercept), slope=float(slope))


class QilinPartitioner:
    """Profile-once, split-analytically adaptive mapping.

    Parameters
    ----------
    host_threads / device_threads / affinities:
        Fixed execution configuration (Qilin tunes only the split).
    profile_fractions:
        Fractions of the target input used as profiling sizes.
    """

    def __init__(
        self,
        *,
        host_threads: int = 48,
        host_affinity: str = "scatter",
        device_threads: int = 240,
        device_affinity: str = "balanced",
        profile_fractions: tuple[float, ...] = (0.05, 0.10, 0.20),
    ) -> None:
        if len(profile_fractions) < 2:
            raise ValueError("need at least two profiling fractions")
        if any(not 0.0 < f <= 1.0 for f in profile_fractions):
            raise ValueError("profile fractions must be in (0, 1]")
        self.host_threads = host_threads
        self.host_affinity = host_affinity
        self.device_threads = device_threads
        self.device_affinity = device_affinity
        self.profile_fractions = profile_fractions
        self.host_model: LinearTimeModel | None = None
        self.device_model: LinearTimeModel | None = None
        self.profiling_experiments = 0

    def profile(self, sim: "PlatformSimulator | str", size_mb: float) -> None:
        """Run the profiling sweep on both devices (the offline stage).

        ``sim`` accepts a registered platform name as well as a built
        simulator; each side's sweep goes through the simulator's
        batched measurement path (the columnar fast path) instead
        of one Python-level measurement per profiling size.
        """
        sim = resolve_simulator(sim)
        sizes = np.array([f * size_mb for f in self.profile_fractions])
        host_times = np.array(
            sim.measure_host_batch(
                [(self.host_threads, self.host_affinity, s) for s in sizes]
            )
        )
        device_times = np.array(
            sim.measure_device_batch(
                [(self.device_threads, self.device_affinity, s) for s in sizes]
            )
        )
        self.profiling_experiments = 2 * len(sizes)
        self.host_model = fit_linear_time(sizes, host_times)
        self.device_model = fit_linear_time(sizes, device_times)

    def choose_split(self, size_mb: float) -> float:
        """Host percent equalizing the two predicted times.

        Solves ``T_h(f m) = T_d((1-f) m)`` for f in [0, 1], then snaps
        to [0, 100] percent; if one side is predicted to win outright,
        returns the corresponding endpoint.
        """
        if self.host_model is None or self.device_model is None:
            raise RuntimeError("choose_split called before profile()")
        h, d = self.host_model, self.device_model
        denominator = (h.slope + d.slope) * size_mb
        if denominator <= 0:
            return 100.0
        f = (d.intercept - h.intercept + d.slope * size_mb) / denominator
        f = min(1.0, max(0.0, f))
        # Endpoint checks: a split only pays if it beats both pure runs.
        t_split = max(h.time(f * size_mb), d.time((1 - f) * size_mb))
        if h.time(size_mb) <= t_split:
            return 100.0
        if d.time(size_mb) <= t_split:
            return 0.0
        return 100.0 * f

    def configuration(self, size_mb: float) -> SystemConfiguration:
        """The full configuration Qilin would execute."""
        return SystemConfiguration(
            host_threads=self.host_threads,
            host_affinity=self.host_affinity,
            device_threads=self.device_threads,
            device_affinity=self.device_affinity,
            host_fraction=self.choose_split(size_mb),
        )
