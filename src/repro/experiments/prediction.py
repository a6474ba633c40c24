"""Prediction-accuracy artifacts: Figures 5-8 and Tables IV-V.

All of them are views of one trained model set:

* Fig. 5 — host measured-vs-predicted curves over file size (scatter
  affinity; 6/12/24/48 threads);
* Fig. 6 — device curves (balanced affinity; 30/60/120/240 threads);
* Figs. 7-8 — absolute-error histograms over the held-out halves;
* Tables IV-V — per-thread-count average absolute/percent errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.training import TrainedModels
from ..ml.dataset import encode_device_row, encode_host_row
from ..ml.metrics import (
    DEVICE_ERROR_BINS,
    HOST_ERROR_BINS,
    ErrorHistogram,
    absolute_error,
    error_histogram,
    percent_error,
)
from ..machines.simulator import PlatformSimulator
from .context import ExperimentContext

#: Thread counts plotted in Fig. 5 (host) and Fig. 6 (device).
FIG5_THREADS: tuple[int, ...] = (6, 12, 24, 48)
FIG6_THREADS: tuple[int, ...] = (30, 60, 120, 240)


@dataclass(frozen=True)
class PredictionCurve:
    """One measured + predicted pair of series over input size."""

    threads: int
    affinity: str
    sizes_mb: tuple[float, ...]
    measured: tuple[float, ...]
    predicted: tuple[float, ...]


def _size_grid(ctx: ExperimentContext) -> np.ndarray:
    """The paper's x-axis: every fraction of every genome, pooled and
    sorted (116 MB ... 3099 MB in Fig. 5)."""
    sizes = []
    for mb in ctx.genome_sizes_mb.values():
        for f in np.arange(2.5, 100.0 + 1.25, 2.5):
            sizes.append(mb * f / 100.0)
    return np.unique(np.round(np.array(sizes), 6))


def fig5_curves(ctx: ExperimentContext) -> list[PredictionCurve]:
    """Host measured-vs-predicted curves (Fig. 5), scatter affinity."""
    return _curves(ctx, side="host", threads_list=FIG5_THREADS, affinity="scatter")


def fig6_curves(ctx: ExperimentContext) -> list[PredictionCurve]:
    """Device measured-vs-predicted curves (Fig. 6), balanced affinity."""
    return _curves(ctx, side="device", threads_list=FIG6_THREADS, affinity="balanced")


def _curves(
    ctx: ExperimentContext,
    *,
    side: str,
    threads_list: tuple[int, ...],
    affinity: str,
) -> list[PredictionCurve]:
    sim: PlatformSimulator = ctx.sim
    sizes = _size_grid(ctx)
    curves = []
    for threads in threads_list:
        measured = []
        predicted = []
        for mb in sizes:
            if side == "host":
                measured.append(sim.measure_host(threads, affinity, float(mb)))
                row = encode_host_row(threads, affinity, float(mb))
                predicted.append(float(ctx.models.host_model.predict(np.array([row]))[0]))
            else:
                measured.append(sim.measure_device(threads, affinity, float(mb)))
                row = encode_device_row(threads, affinity, float(mb))
                predicted.append(
                    float(ctx.models.device_model.predict(np.array([row]))[0])
                )
        curves.append(
            PredictionCurve(
                threads=threads,
                affinity=affinity,
                sizes_mb=tuple(float(s) for s in sizes),
                measured=tuple(measured),
                predicted=tuple(predicted),
            )
        )
    return curves


def fig7_histogram(ctx: ExperimentContext) -> ErrorHistogram:
    """Host absolute-error histogram over the held-out half (Fig. 7)."""
    ev = ctx.models.host_eval
    return error_histogram(absolute_error(ev.measured, ev.predicted), HOST_ERROR_BINS)


def fig8_histogram(ctx: ExperimentContext) -> ErrorHistogram:
    """Device absolute-error histogram over the held-out half (Fig. 8)."""
    ev = ctx.models.device_eval
    return error_histogram(absolute_error(ev.measured, ev.predicted), DEVICE_ERROR_BINS)


@dataclass(frozen=True)
class AccuracyTable:
    """Tables IV/V: per-thread-count prediction accuracy."""

    side: str
    threads: tuple[int, ...]
    absolute_s: tuple[float, ...]
    percent: tuple[float, ...]

    @property
    def avg_absolute_s(self) -> float:
        """Average absolute error across thread counts (paper's "avg")."""
        return float(np.mean(self.absolute_s))

    @property
    def avg_percent(self) -> float:
        """Average percent error across thread counts."""
        return float(np.mean(self.percent))

    def rows(self) -> list[tuple[object, ...]]:
        """Rows for rendering: per-thread columns plus the average."""
        return [
            ("absolute [s]",
             *[round(a, 3) for a in self.absolute_s], round(self.avg_absolute_s, 3)),
            ("percent [%]", *[round(p, 3) for p in self.percent], round(self.avg_percent, 3)),
        ]


def _accuracy_by_threads(models: TrainedModels, side: str) -> AccuracyTable:
    if side == "host":
        ds, ev, test_idx = models.data.host, models.host_eval, models.host_test_idx
    else:
        ds, ev, test_idx = models.data.device, models.device_eval, models.device_test_idx
    thread_col = ds.X[test_idx, 0]
    abs_err = absolute_error(ev.measured, ev.predicted)
    pct_err = percent_error(ev.measured, ev.predicted)
    threads = tuple(int(t) for t in np.unique(thread_col))
    abs_by = []
    pct_by = []
    for t in threads:
        mask = thread_col == t
        abs_by.append(float(abs_err[mask].mean()))
        pct_by.append(float(pct_err[mask].mean()))
    return AccuracyTable(
        side=side,
        threads=threads,
        absolute_s=tuple(abs_by),
        percent=tuple(pct_by),
    )


def table4(ctx: ExperimentContext) -> AccuracyTable:
    """Table IV: host prediction accuracy by thread count."""
    return _accuracy_by_threads(ctx.models, "host")


def table5(ctx: ExperimentContext) -> AccuracyTable:
    """Table V: device prediction accuracy by thread count."""
    return _accuracy_by_threads(ctx.models, "device")
