"""Train/evaluation protocols.

The paper employs "a standard validation methodology by using half of
the experiments for training and the other half for evaluation"
(section IV-B).  :func:`half_split` reproduces that; k-fold CV is
provided for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

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


def kfold_indices(n: int, k: int, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """K-fold split -> list of (train_idx, test_idx)."""
    if not 2 <= k <= n:
        raise ValueError(f"k must be in [2, n]; got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    folds = np.array_split(perm, k)
    out = []
    for i in range(k):
        test = np.sort(folds[i])
        train = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
        out.append((train, test))
    return out


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


def train_and_evaluate(
    make_model: Callable[[], Regressor], data: Dataset, *, seed: int = 0
) -> EvalResult:
    """Fit on a random half, evaluate Eqs. 5-6 on the other half."""
    train_idx, _test_idx = half_split(len(data), seed=seed)
    model = make_model()
    model.fit(data.X[train_idx], data.y[train_idx])
    return evaluate_held_out(model, data, seed=seed)


def cross_validate(
    make_model: Callable[[], Regressor], data: Dataset, k: int = 5, *, seed: int = 0
) -> list[EvalResult]:
    """K-fold CV returning one :class:`EvalResult` per fold."""
    results = []
    for train_idx, test_idx in kfold_indices(len(data), k, seed=seed):
        model = make_model()
        model.fit(data.X[train_idx], data.y[train_idx])
        pred = model.predict(data.X[test_idx])
        truth = data.y[test_idx]
        results.append(
            EvalResult(
                mean_absolute_error_s=mean_absolute_error(truth, pred),
                mean_percent_error=mean_percent_error(truth, pred),
                n_train=len(train_idx),
                n_test=len(test_idx),
                measured=truth,
                predicted=pred,
            )
        )
    return results
