"""Prediction-accuracy metrics of the paper (Eqs. 5-6) and histograms.

``absolute error = |T_measured - T_predicted|``            (Eq. 5)
``percent error  = 100 * absolute error / T_measured``     (Eq. 6)

Figures 7-8 report *error histograms*: prediction counts per absolute-
error bin, with the bin edges the paper uses for host and device.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Bin upper edges of the paper's Fig. 7 (host) histogram, seconds.
HOST_ERROR_BINS: tuple[float, ...] = (
    0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08, 0.10, 0.15, 0.20,
)

#: Bin upper edges of the paper's Fig. 8 (device) histogram, seconds.
DEVICE_ERROR_BINS: tuple[float, ...] = (
    0.015, 0.03, 0.04, 0.05, 0.08, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60,
    1.0, 1.5, 2.0,
)


def absolute_error(measured: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Element-wise absolute error (Eq. 5)."""
    measured = np.asarray(measured, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if measured.shape != predicted.shape:
        raise ValueError(
            f"shape mismatch: {measured.shape} vs {predicted.shape}"
        )
    return np.abs(measured - predicted)


def percent_error(measured: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Element-wise percent error (Eq. 6); measured values must be nonzero."""
    measured = np.asarray(measured, dtype=np.float64)
    if (measured == 0).any():
        raise ValueError("percent error undefined for zero measured values")
    return 100.0 * absolute_error(measured, predicted) / np.abs(measured)


def mean_absolute_error(measured: np.ndarray, predicted: np.ndarray) -> float:
    """Average of Eq. 5 over a test set."""
    return float(absolute_error(measured, predicted).mean())


def mean_percent_error(measured: np.ndarray, predicted: np.ndarray) -> float:
    """Average of Eq. 6 over a test set."""
    return float(percent_error(measured, predicted).mean())


@dataclass(frozen=True)
class ErrorHistogram:
    """Counts of predictions per absolute-error bin (Figs. 7-8).

    ``edges[i]`` is the inclusive upper bound of bin ``i``; one overflow
    bin collects everything beyond the last edge.
    """

    edges: tuple[float, ...]
    counts: tuple[int, ...]

    @property
    def n_predictions(self) -> int:
        """Total number of predictions binned."""
        return int(sum(self.counts))

    def rows(self) -> list[tuple[str, int]]:
        """(label, count) pairs for rendering."""
        labels = [f"<= {e:g}" for e in self.edges] + [f"> {self.edges[-1]:g}"]
        return list(zip(labels, self.counts))


def error_histogram(
    errors: np.ndarray, edges: tuple[float, ...] = HOST_ERROR_BINS
) -> ErrorHistogram:
    """Bin absolute errors with the paper's edge convention."""
    errors = np.asarray(errors, dtype=np.float64)
    if (errors < 0).any():
        raise ValueError("absolute errors cannot be negative")
    if list(edges) != sorted(edges):
        raise ValueError("bin edges must be increasing")
    bins = np.array(edges, dtype=np.float64)
    # searchsorted: bin i collects errors in (edges[i-1], edges[i]].
    which = np.searchsorted(bins, errors, side="left")
    counts = np.bincount(which, minlength=len(edges) + 1)
    return ErrorHistogram(edges=tuple(edges), counts=tuple(int(c) for c in counts))
