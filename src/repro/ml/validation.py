"""Train/evaluation protocols.

The paper employs "a standard validation methodology by using half of
the experiments for training and the other half for evaluation"
(section IV-B).  :func:`half_split` reproduces that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .dataset import Dataset
from .metrics import mean_absolute_error, mean_percent_error


class Regressor(Protocol):
    """Anything with sklearn-style fit/predict."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Regressor": ...
    def predict(self, X: np.ndarray) -> np.ndarray: ...


def half_split(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Random half/half split of ``range(n)`` -> (train_idx, test_idx)."""
    if n < 2:
        raise ValueError(f"need at least 2 samples to split, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    half = n // 2
    return np.sort(perm[:half]), np.sort(perm[half:])


@dataclass(frozen=True)
class EvalResult:
    """Held-out evaluation of one model."""

    mean_absolute_error_s: float
    mean_percent_error: float
    n_train: int
    n_test: int
    measured: np.ndarray
    predicted: np.ndarray


def evaluate_held_out(model: Regressor, data: Dataset, *, seed: int = 0) -> EvalResult:
    """Eqs. 5-6 of a fitted model on the held-out half of ``half_split(seed)``."""
    _train_idx, test_idx = half_split(len(data), seed=seed)
    pred = model.predict(data.X[test_idx])
    truth = data.y[test_idx]
    return EvalResult(
        mean_absolute_error_s=mean_absolute_error(truth, pred),
        mean_percent_error=mean_percent_error(truth, pred),
        n_train=len(data) - len(test_idx),
        n_test=len(test_idx),
        measured=truth,
        predicted=pred,
    )
