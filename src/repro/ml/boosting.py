"""Boosted Decision Tree Regression — the paper's performance predictor.

Least-squares gradient boosting (Friedman 2001): each stage fits a
shallow :class:`~repro.ml.tree.RegressionTree` to the current residuals
and is added with a shrinkage factor.  The paper selected this model
over linear and Poisson regression for its accuracy (section III-B); our
ablation benchmark reproduces that comparison.
"""

from __future__ import annotations

import numpy as np

from .tree import _LEAF, RegressionTree, presort

#: Rows per block in :meth:`BoostedDecisionTreeRegressor.predict`.
PREDICT_BLOCK_ROWS = 256


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
        self._packed: tuple | None = None

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
        self._packed = None
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

    def _pack(self) -> tuple:
        """Flatten the ensemble into (trees x nodes) arrays for batch descent.

        Leaves become self-loops (left == right == node), so descending a
        fixed ``max depth`` number of steps parks every row at its leaf.
        Built lazily after fit and reused across predict calls.
        """
        if self._packed is None:
            trees = self.trees_
            n_trees = len(trees)
            max_nodes = max(t.n_nodes for t in trees)
            feature = np.zeros((n_trees, max_nodes), dtype=np.int32)
            threshold = np.zeros((n_trees, max_nodes), dtype=np.float64)
            left = np.zeros((n_trees, max_nodes), dtype=np.int32)
            right = np.zeros((n_trees, max_nodes), dtype=np.int32)
            value = np.zeros((n_trees, max_nodes), dtype=np.float64)
            depth = 0
            for t, tree in enumerate(trees):
                n = tree.n_nodes
                leaf = tree.feature == _LEAF
                nodes = np.arange(n, dtype=np.int32)
                feature[t, :n] = np.where(leaf, 0, tree.feature)
                threshold[t, :n] = tree.threshold
                left[t, :n] = np.where(leaf, nodes, tree.left)
                right[t, :n] = np.where(leaf, nodes, tree.right)
                value[t, :n] = tree.value
                depth = max(depth, tree.depth)
            self._packed = (feature, threshold, left, right, value, depth)
        return self._packed

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for a batch of rows.

        Rows go through in blocks of :data:`PREDICT_BLOCK_ROWS`; within a
        block all trees descend simultaneously over the packed
        representation (one gather per depth level for the whole
        ensemble).  Transient memory is therefore bounded by
        ``trees x PREDICT_BLOCK_ROWS`` whatever the batch size.  Values
        are bit-identical to per-tree descent: same leaves, and the
        per-stage accumulation preserves the summation order of
        :meth:`predict_one`.
        """
        if self.base_prediction_ is None:
            raise RuntimeError("predict called before fit")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.empty(len(X))
        for start in range(0, len(X), PREDICT_BLOCK_ROWS):
            block = slice(start, start + PREDICT_BLOCK_ROWS)
            out[block] = self._predict_block(X[block])
        return out

    def _predict_block(self, X: np.ndarray) -> np.ndarray:
        feature, threshold, left, right, value, depth = self._pack()
        n = len(X)
        nodes = np.zeros((len(self.trees_), n), dtype=np.int32)
        rows = np.arange(n)
        for _ in range(depth):
            cur_feature = np.take_along_axis(feature, nodes, axis=1)
            cur_threshold = np.take_along_axis(threshold, nodes, axis=1)
            go_left = X[rows[None, :], cur_feature] <= cur_threshold
            nodes = np.where(
                go_left,
                np.take_along_axis(left, nodes, axis=1),
                np.take_along_axis(right, nodes, axis=1),
            )
        leaf_values = np.take_along_axis(value, nodes, axis=1)
        out = np.full(n, self.base_prediction_)
        for stage in leaf_values:
            out += self.learning_rate * stage
        return out

    def predict_one(self, x) -> float:
        """Scalar-path prediction for a single row (see
        :meth:`RegressionTree.predict_one`)."""
        if self.base_prediction_ is None:
            raise RuntimeError("predict called before fit")
        out = self.base_prediction_
        lr = self.learning_rate
        for tree in self.trees_:
            out += lr * tree.predict_one(x)
        return out

    def staged_predict(self, X: np.ndarray, every: int = 1) -> list[np.ndarray]:
        """Predictions after each ``every`` stages (for learning curves)."""
        if self.base_prediction_ is None:
            raise RuntimeError("staged_predict called before fit")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.full(len(X), self.base_prediction_)
        stages = []
        for i, tree in enumerate(self.trees_, 1):
            out = out + self.learning_rate * tree.predict(X)
            if i % every == 0:
                stages.append(out.copy())
        return stages
