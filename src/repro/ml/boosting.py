"""Boosted Decision Tree Regression — the paper's performance predictor.

Least-squares gradient boosting (Friedman 2001): each stage fits a
shallow :class:`~repro.ml.tree.RegressionTree` to the current residuals
and is added with a shrinkage factor.  The paper selected this model
over linear and Poisson regression for its accuracy (section III-B); our
ablation benchmark reproduces that comparison.

A fitted ensemble is piecewise constant over the cuts of its tree
thresholds, so its first prediction compiles it into an exact lookup
table (:meth:`BoostedDecisionTreeRegressor._compile`) and every later
prediction, batch or scalar, is one cell read per row.  The table is a
cache: ``fit`` drops it, and neither :mod:`repro.ml.io` nor pickling
carries it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from collections.abc import Iterator
from itertools import islice

import numpy as np

from .tree import _LEAF, RegressionTree, presort

#: Largest lookup table (cells of float64, 8 MB) an ensemble compiles;
#: a bigger one predicts by summing per-tree descents.
TABLE_MAX_CELLS = 1 << 20


class BoostedDecisionTreeRegressor:
    """Gradient-boosted regression trees with least-squares loss.

    Parameters
    ----------
    n_estimators:
        Number of boosting stages.
    learning_rate:
        Shrinkage applied to each stage's contribution.
    max_depth, min_samples_leaf:
        Base-tree capacity controls.
    subsample:
        Fraction of training rows sampled (without replacement) per
        stage; 1.0 disables stochastic boosting.
    seed:
        RNG seed for subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_samples_leaf: int = 3,
        subsample: float = 1.0,
        seed: int = 0,
    ) -> None:
        if n_estimators <= 0:
            raise ValueError(f"n_estimators must be positive, got {n_estimators}")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {learning_rate}")
        if not 0.0 < subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {subsample}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed
        self.base_prediction_: float | None = None
        self.trees_: list[RegressionTree] = []
        self.train_loss_: list[float] = []
        self._table: tuple | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BoostedDecisionTreeRegressor":
        """Fit the ensemble; records per-stage training MSE in ``train_loss_``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.base_prediction_ = float(y.mean())
        self.trees_ = []
        self.train_loss_ = []
        current = np.full(len(y), self.base_prediction_)
        self._boost(X, y, current, self.n_estimators)
        self._table = None
        return self

    def continue_fit(
        self, X: np.ndarray, y: np.ndarray, n_stages: int
    ) -> "BoostedDecisionTreeRegressor":
        """Staged boosting continuation: extend this ensemble on new data.

        Returns a *new* regressor whose first stages are this model's
        trees (shared, they are immutable after fit) and whose
        ``n_stages`` additional stages fit the residuals of this model's
        predictions on ``(X, y)`` with the same shrinkage — the transfer
        warm start of :mod:`repro.ml.transfer`.  The donor is left
        untouched, and the continued model predicts exactly
        ``donor(x) + lr * sum(new trees)(x)``, so it round-trips through
        :mod:`repro.ml.io` like any other fitted ensemble.
        """
        if self.base_prediction_ is None:
            raise RuntimeError("continue_fit called before fit")
        if n_stages <= 0:
            raise ValueError(f"n_stages must be positive, got {n_stages}")
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        model = BoostedDecisionTreeRegressor(
            n_estimators=len(self.trees_) + n_stages,
            learning_rate=self.learning_rate,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            subsample=self.subsample,
            seed=self.seed,
        )
        model.base_prediction_ = self.base_prediction_
        model.trees_ = list(self.trees_)
        model.train_loss_ = list(self.train_loss_)
        model._boost(X, y, self.predict(X), n_stages)
        return model

    def _boost(self, X: np.ndarray, y: np.ndarray, current: np.ndarray, n_stages: int) -> None:
        """Append ``n_stages`` stages fitted to the residuals of ``current``.

        Without subsampling every stage fits the same ``X``, so its
        columns are sorted once here and each tree reports its training
        rows' leaves, which update ``current`` without a descent.
        """
        rng = np.random.default_rng(self.seed)
        n_sub = max(1, int(round(self.subsample * len(y))))
        subsampled = self.subsample < 1.0
        if not subsampled:
            orders = presort(X)
            leaves = np.empty(len(y), dtype=np.intp)
        for _ in range(n_stages):
            residual = y - current
            tree = RegressionTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            )
            if subsampled:
                rows = rng.choice(len(y), size=n_sub, replace=False)
                tree.fit(X[rows], residual[rows])
                step = tree.predict(X)
            else:
                tree.fit(X, residual, orders=orders, leaves=leaves)
                step = tree.value[leaves]
            current = current + self.learning_rate * step
            self.trees_.append(tree)
            self.train_loss_.append(float(np.mean((y - current) ** 2)))

    def _compile(self) -> tuple:
        """The ensemble as an exact lookup table, built on first use.

        A boosted ensemble is piecewise constant between the thresholds
        its trees split on.  Feature ``f``'s sorted distinct thresholds
        are its cuts; a row's index on ``f`` is
        ``searchsorted(cuts, x_f, side="left")``, and ``x_f <= cuts[j]``
        holds exactly when that index is ``<= j``.  Each tree adds
        ``learning_rate * value`` of every leaf over the leaf's box of
        index ranges, in stage order from ``base_prediction_``, so every
        cell holds the float64 sum a per-tree descent accumulates.

        Returns ``(axes, flat)``: one ``(feature, cuts array, cuts list,
        stride)`` per split feature and the flattened table, or
        ``flat = None`` when the table would exceed
        :data:`TABLE_MAX_CELLS`.
        """
        if self.base_prediction_ is None:
            raise RuntimeError("predict called before fit")
        trees = self.trees_
        features = sorted(
            {int(f) for tree in trees for f in tree.feature[tree.feature != _LEAF]}
        )
        cuts = [
            np.unique(np.concatenate([tree.threshold[tree.feature == f] for tree in trees]))
            for f in features
        ]
        cut_lists = [c.tolist() for c in cuts]
        shape = tuple(len(c) + 1 for c in cuts)
        if math.prod(shape) > TABLE_MAX_CELLS:
            self._table = ((), None)
            return self._table
        axis_of = {f: k for k, f in enumerate(features)}
        table = np.full(shape, self.base_prediction_)
        lr = self.learning_rate
        for tree in trees:
            feature, threshold, left, right, value = (
                getattr(tree, name).tolist()
                for name in ("feature", "threshold", "left", "right", "value")
            )
            # Frames: (node, lower and upper cut-index bounds per axis).
            stack = [(0, (0,) * len(shape), shape)]
            while stack:
                node, lo, hi = stack.pop()
                f = feature[node]
                if f == _LEAF:
                    table[tuple(map(slice, lo, hi))] += lr * value[node]
                    continue
                k = axis_of[f]
                j = bisect_left(cut_lists[k], threshold[node]) + 1
                stack.append((left[node], lo, hi[:k] + (min(hi[k], j),) + hi[k + 1 :]))
                stack.append((right[node], lo[:k] + (max(lo[k], j),) + lo[k + 1 :], hi))
        strides = [s // table.itemsize for s in table.strides]
        axes = tuple(zip(features, cuts, cut_lists, strides))
        self._table = (axes, table.reshape(-1))
        return self._table

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for a batch of rows.

        One ``searchsorted`` per split feature indexes the compiled
        table (see :meth:`_compile`), then one gather reads the rows'
        cells.  An ensemble whose table would exceed
        :data:`TABLE_MAX_CELLS` sums per-tree descents in stage order
        instead (the loop :meth:`staged_predict` shares); both give the
        same float64 values.
        """
        axes, flat = self._table or self._compile()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if flat is None:
            return deque(self._stage_sums(X), maxlen=1)[0]
        index = np.zeros(len(X), dtype=np.intp)
        for f, cuts, _, stride in axes:
            index += stride * cuts.searchsorted(X[:, f], side="left")
        return flat[index]

    def predict_one(self, x) -> float:
        """Scalar-path prediction for a single row (no array overhead).

        The annealer scores one configuration at a time; this is the
        table lookup of :meth:`predict` with ``bisect`` over Python
        lists, equal to it bit for bit (NaN features excepted: they
        need the batch path).
        """
        axes, flat = self._table or self._compile()
        if flat is None:
            return float(self.predict(x)[0])
        i = 0
        for f, _, cuts, stride in axes:
            i += stride * bisect_left(cuts, x[f])
        return flat.item(i)

    def __getstate__(self) -> dict:
        # The table is a cache: rebuilt on first use, never shipped.
        state = dict(self.__dict__)
        state["_table"] = None
        return state

    def staged_predict(self, X: np.ndarray, every: int = 1) -> list[np.ndarray]:
        """Predictions after each ``every`` stages (for learning curves)."""
        if self.base_prediction_ is None:
            raise RuntimeError("staged_predict called before fit")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return list(islice(self._stage_sums(X), every - 1, None, every))

    def _stage_sums(self, X: np.ndarray) -> Iterator[np.ndarray]:
        """Yield the running prediction after every stage: per-tree
        descents summed in stage order from ``base_prediction_``."""
        out = np.full(len(X), self.base_prediction_)
        for tree in self.trees_:
            out = out + self.learning_rate * tree.predict(X)
            yield out
