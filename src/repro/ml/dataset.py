"""Feature encoding for the performance predictor.

Figure 4 of the paper: structured training data -> *Normalize Data* ->
*Train Model* (Boosted Decision Tree Regression).  Rows reach the
boosted trees unscaled: a tree splits each feature at a threshold, and
a per-column affine rescaling moves the thresholds without changing
which rows fall on which side, so it cannot change a prediction.  The
features are the
ones the paper names in section III-B: input size, available computing
resources (thread count) and thread-allocation strategy, plus the
workload fraction expressed through the *effective megabytes* the side
actually processes.

Affinity is one-hot encoded (it is categorical, not ordinal); trees
could split on an integer code, but the linear/Poisson baselines cannot,
and a shared encoding keeps the comparison fair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machines.affinity import DEVICE_AFFINITIES, HOST_AFFINITIES


@dataclass
class Dataset:
    """A design matrix with aligned targets and column names."""

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {self.X.shape}")
        if len(self.y) != len(self.X):
            raise ValueError(
                f"X and y disagree on sample count: {len(self.X)} vs {len(self.y)}"
            )
        if len(self.feature_names) != self.X.shape[1]:
            raise ValueError(
                f"{self.X.shape[1]} columns but {len(self.feature_names)} names"
            )

    def __len__(self) -> int:
        return len(self.X)

    def subset(self, idx: np.ndarray) -> "Dataset":
        """Row-subset view of the dataset."""
        return Dataset(self.X[idx], self.y[idx], self.feature_names)


def _one_hot(value: str, levels: tuple[str, ...]) -> list[float]:
    if value not in levels:
        raise ValueError(f"unknown level {value!r}; expected one of {levels}")
    return [1.0 if value == lv else 0.0 for lv in levels]


HOST_FEATURE_NAMES: tuple[str, ...] = (
    "threads",
    *(f"affinity_{a}" for a in HOST_AFFINITIES),
    "mb",
)

DEVICE_FEATURE_NAMES: tuple[str, ...] = (
    "threads",
    *(f"affinity_{a}" for a in DEVICE_AFFINITIES),
    "mb",
)


def encode_host_row(threads: int, affinity: str, mb: float) -> list[float]:
    """Feature vector of one host-side configuration."""
    return [float(threads), *_one_hot(affinity, HOST_AFFINITIES), float(mb)]


def encode_device_row(threads: int, affinity: str, mb: float) -> list[float]:
    """Feature vector of one device-side configuration."""
    return [float(threads), *_one_hot(affinity, DEVICE_AFFINITIES), float(mb)]


def encode_side_columns(
    threads: np.ndarray, codes: np.ndarray, mb: np.ndarray, levels: tuple[str, ...]
) -> np.ndarray:
    """Columnar design matrix for one side: ``[threads, one-hot, mb]``.

    ``codes`` are affinity indices into ``levels`` (feature-encoding
    order).  Bit-identical to stacking per-row ``encode_*_row`` results:
    every entry is an exactly representable integer, 0/1 flag, or the
    unchanged ``mb`` value.
    """
    n = len(threads)
    X = np.zeros((n, 2 + len(levels)), dtype=np.float64)
    X[:, 0] = threads
    X[np.arange(n), 1 + np.asarray(codes, dtype=np.int64)] = 1.0
    X[:, -1] = mb
    return X
