"""Training-data generation, model fitting and the held-out protocol
(paper section III-B).

The paper generates ~7200 experiments — 2880 on the host (6 thread
counts x 3 affinities x 40 fractions x 4 genomes) and 4320 on the device
(9 x 3 x 40 x 4) — and trains the Boosted Decision Tree Regression on
half of them, evaluating on the other half.  This module holds the
pieces of that pipeline: the grid (:func:`space_training_data`), the
fit (:func:`train_models`) and the held-out evaluation
(:func:`evaluate_models`).  :func:`repro.ml.transfer.cell_models` is
the one place that puts them together for a cell; the tuning entry
points and the experiment contexts train through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ..machines.simulator import PlatformSimulator
from ..ml.boosting import BoostedDecisionTreeRegressor
from ..ml.dataset import (
    DEVICE_FEATURE_NAMES,
    HOST_FEATURE_NAMES,
    Dataset,
    encode_side_columns,
)
from ..ml.validation import EvalResult, Regressor, evaluate_held_out, half_split
from .evaluators import MLEvaluator
from .params import DEVICE_THREADS, EVAL_HOST_THREADS, ParameterSpace
from ..machines.affinity import DEVICE_AFFINITIES, HOST_AFFINITIES, affinity_index

#: Training fractions: 2.5%..100% in 2.5 steps (40 values, excludes 0 —
#: a 0% side is never launched, so there is nothing to measure).
TRAINING_FRACTIONS: tuple[float, ...] = tuple(
    float(x) for x in np.arange(2.5, 100.0 + 1.25, 2.5)
)

#: The paper's four genome sizes in MB (section IV-A).
DEFAULT_TRAINING_SIZES_MB: tuple[float, ...] = (3170.0, 2770.0, 2430.0, 2380.0)


def training_sizes_for(workload=None) -> tuple[float, ...]:
    """The training-grid sizes fitted to a workload's input scale.

    The paper trains on its four genome sizes; other workloads keep the
    same four-point *shape* rescaled so the grid brackets the sizes the
    scenario will actually tune (``WorkloadSpec.sequence_mb`` maps onto
    the largest genome).  For ``dna-paper`` the ratio is exactly 1 and
    the paper's sizes are returned verbatim, as they are for ``None``
    (a raw profile, which carries no input scale).
    """
    from ..dna.workloads import get_workload

    if workload is None:
        return DEFAULT_TRAINING_SIZES_MB
    spec = get_workload(workload)
    ratio = spec.sequence_mb / DEFAULT_TRAINING_SIZES_MB[0]
    if ratio == 1.0:
        return DEFAULT_TRAINING_SIZES_MB
    return tuple(round(s * ratio, 3) for s in DEFAULT_TRAINING_SIZES_MB)


@dataclass(frozen=True)
class TrainingData:
    """Measured host/device experiment grids."""

    host: Dataset
    device: Dataset

    @property
    def n_experiments(self) -> int:
        """Total measured experiments (7200 for the paper's grids)."""
        return len(self.host) + len(self.device)


def side_combos(
    threads: Sequence[int], affinities: Sequence[str], side: str
) -> tuple[np.ndarray, np.ndarray]:
    """One side's (thread, affinity-code) cross product, thread-major.

    The combos are size-independent, so a cell builds them once and
    reuses them for every training size (and for any re-measured
    transfer grid, see :mod:`repro.ml.transfer`) instead of
    regenerating the cross product per size.
    """
    codes = np.asarray([affinity_index(a, side) for a in affinities], dtype=np.int64)
    thread_g, code_g = np.meshgrid(
        np.asarray(threads, dtype=np.int64), codes, indexing="ij"
    )
    return thread_g.ravel(), code_g.ravel()


def _grid_columns(
    sizes_mb: Sequence[float],
    fractions: Sequence[float],
    combos: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One side's grid as ``(threads, affinity codes, mb)`` columns.

    ``combos`` is the side's precomputed (thread, code) cross product
    from :func:`side_combos`, tiled across the size x fraction product:
    rows run size-major, then fraction, then (thread, affinity), and
    each row's megabytes are ``size * f / 100``.
    """
    thread_c, code_c = combos
    size_g, frac_g = np.meshgrid(
        np.asarray(sizes_mb, dtype=np.float64),
        np.asarray(fractions, dtype=np.float64),
        indexing="ij",
    )
    mb = np.repeat(size_g.ravel() * frac_g.ravel() / 100.0, len(thread_c))
    reps = size_g.size
    return np.tile(thread_c, reps), np.tile(code_c, reps), mb


def generate_training_data(
    sim: PlatformSimulator,
    *,
    sizes_mb: Sequence[float] = DEFAULT_TRAINING_SIZES_MB,
    host_threads: Sequence[int] = EVAL_HOST_THREADS,
    host_affinities: Sequence[str] = HOST_AFFINITIES,
    device_threads: Sequence[int] = DEVICE_THREADS,
    device_affinities: Sequence[str] = DEVICE_AFFINITIES,
    fractions: Sequence[float] = TRAINING_FRACTIONS,
) -> TrainingData:
    """Run the full training grid on the measurement substrate.

    With the defaults this performs exactly 2880 host and 4320 device
    experiments, matching section IV-B.  Each side's grid is generated,
    measured, and feature-encoded as whole columns through the
    simulator's vectorized analytic core (identical values, rows, and
    experiment accounting to the historical per-call loop).
    """
    h_threads, h_codes, h_mb = _grid_columns(
        sizes_mb, fractions, side_combos(host_threads, host_affinities, "host")
    )
    d_threads, d_codes, d_mb = _grid_columns(
        sizes_mb, fractions, side_combos(device_threads, device_affinities, "device")
    )
    host_y = sim.measure_host_columns(h_threads, h_codes, h_mb)
    device_y = sim.measure_device_columns(d_threads, d_codes, d_mb)
    host_X = encode_side_columns(h_threads, h_codes, h_mb, HOST_AFFINITIES)
    device_X = encode_side_columns(d_threads, d_codes, d_mb, DEVICE_AFFINITIES)
    return TrainingData(
        host=Dataset(host_X, host_y, HOST_FEATURE_NAMES),
        device=Dataset(device_X, device_y, DEVICE_FEATURE_NAMES),
    )


def space_training_data(
    sim: PlatformSimulator,
    space: ParameterSpace,
    sizes_mb: Sequence[float],
    fractions: Sequence[float] = TRAINING_FRACTIONS,
) -> TrainingData:
    """:func:`generate_training_data` over a configuration space's
    per-side thread and affinity axes (a cell's training grid)."""
    return generate_training_data(
        sim,
        sizes_mb=sizes_mb,
        host_threads=space.host_threads,
        host_affinities=space.host_affinities,
        device_threads=space.device_threads,
        device_affinities=space.device_affinities,
        fractions=fractions,
    )


def evaluate_models(models, data: TrainingData, *, seed: int = 0) -> dict[str, EvalResult]:
    """Held-out evaluation of a model pair: each side scored by
    :func:`~repro.ml.validation.evaluate_held_out` on the half its fit
    never saw, so ``seed`` must be the cell seed the models were trained
    with.  ``models`` is anything with ``host_model``/``device_model``.
    """
    return {
        "host": evaluate_held_out(models.host_model, data.host, seed=seed),
        "device": evaluate_held_out(models.device_model, data.device, seed=seed),
    }


@dataclass
class TrainedModels:
    """Fitted per-side predictors with the grid and seed they were fitted on.

    The held-out evaluations are worked out by :func:`evaluate_models`
    the first time one of them is read, so fitting alone never predicts.
    """

    host_model: Regressor
    device_model: Regressor
    data: TrainingData
    seed: int

    @cached_property
    def _held_out(self) -> dict[str, EvalResult]:
        return evaluate_models(self, self.data, seed=self.seed)

    @property
    def host_eval(self) -> EvalResult:
        return self._held_out["host"]

    @property
    def device_eval(self) -> EvalResult:
        return self._held_out["device"]

    @property
    def host_test_idx(self) -> np.ndarray:
        return half_split(len(self.data.host), seed=self.seed)[1]

    @property
    def device_test_idx(self) -> np.ndarray:
        return half_split(len(self.data.device), seed=self.seed)[1]

    def evaluator(self) -> MLEvaluator:
        """The ML-backed configuration evaluator for SAML/EML."""
        return MLEvaluator(self.host_model, self.device_model)


def default_model_factory() -> BoostedDecisionTreeRegressor:
    """The paper's model: boosted decision tree regression.

    Hyper-parameters tuned on the training grid to reach the paper's
    accuracy band (host ~5.2%, device ~3.1% mean percent error); we get
    ~3.3%/3.4% with this setting.
    """
    return BoostedDecisionTreeRegressor(
        n_estimators=300, learning_rate=0.08, max_depth=6, min_samples_leaf=2
    )


def train_models(
    data: TrainingData,
    *,
    model_factory: Callable[[], Regressor] = default_model_factory,
    seed: int = 0,
) -> TrainedModels:
    """Fit each side on its training half of the section IV-B split.

    The held-out half is left for :func:`evaluate_models`, which runs
    only when an evaluation is read.
    """
    fitted = []
    for ds in (data.host, data.device):
        train_idx, _test_idx = half_split(len(ds), seed=seed)
        model = model_factory()
        model.fit(ds.X[train_idx], ds.y[train_idx])
        fitted.append(model)
    return TrainedModels(*fitted, data=data, seed=seed)
