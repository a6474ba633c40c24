"""CART regression tree, the base learner of the boosted model.

Implemented from scratch (no scikit-learn offline) with the standard
variance-reduction split criterion.  Each feature is sorted once per
fit (:func:`presort`; a boosting run shares one sort across all its
stages).  A node holds its rows in every feature's stable sort order
and hands each child a filtered copy, which is exactly the child's own
stable argsort.  One prefix-sum pass then scores the candidate
thresholds (the midpoints between distinct sorted values) of all
features at once, so a node costs ``O(features * n)`` instead of the
``O(features * n log n)`` of re-sorting it.

The fitted tree is stored flat (arrays of feature/threshold/children/
value) which makes batch prediction a short loop over tree depth rather
than Python recursion per sample.
"""

from __future__ import annotations

import numpy as np

_LEAF = -1


def presort(X: np.ndarray) -> np.ndarray:
    """Stable argsort of every column of ``X``, as a (features x n) array.

    Row ``f`` lists the row indices in ascending order of ``X[:, f]``,
    ties by row index.  The root node of a fit on ``X`` starts from it.
    """
    return np.argsort(X.T, axis=1, kind="stable")


class RegressionTree:
    """Binary regression tree minimizing squared error.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0).
    min_samples_split:
        Don't split nodes with fewer samples than this.
    min_samples_leaf:
        Reject splits producing a child smaller than this.
    """

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
    ) -> None:
        if max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {max_depth}")
        if min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {min_samples_split}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        # Flat representation, filled by fit().
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None

    # -- fitting -----------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        orders: np.ndarray | None = None,
        leaves: np.ndarray | None = None,
    ) -> "RegressionTree":
        """Fit the tree; returns self.

        ``orders`` is :func:`presort` of ``X``; pass it to share one
        sort between several fits on the same design matrix.  ``leaves``,
        if given, is a length-``n`` integer array that receives the leaf
        node of every training row (what :meth:`predict` would return
        the value of), so a caller that needs the fitted values on ``X``
        need not descend the tree again.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        if orders is None:
            orders = presort(X)
        if leaves is None:
            leaves = np.empty(len(X), dtype=np.intp)
        XT = X.T
        n_features = X.shape[1]
        feature_rows = np.arange(n_features)[:, None]
        k = self.min_samples_leaf
        in_left = np.zeros(len(X), dtype=bool)

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []

        def new_node() -> int:
            feature.append(_LEAF)
            threshold.append(0.0)
            left.append(_LEAF)
            right.append(_LEAF)
            value.append(0.0)
            return len(feature) - 1

        # Frames: (node, rows ascending, rows in each feature's stable
        # sort order as a (features x n) array, depth).
        stack = [(new_node(), np.arange(len(X)), orders, 0)]
        while stack:
            node, idx, ords, depth = stack.pop()
            n = len(idx)
            # Ascending-row sum, so the pairwise summation (and hence
            # mean()) is unchanged; sum / n is bitwise mean().
            sum_total = y[idx].sum()
            value[node] = float(sum_total / n)
            if depth >= self.max_depth or n < self.min_samples_split:
                leaves[idx] = node
                continue
            # Candidate split after sorted position i (left = [0..i]);
            # valid only where the feature value changes and both
            # children keep min_samples_leaf rows.
            xs = XT[feature_rows, ords]
            valid = xs[:, 1:] != xs[:, :-1]
            if k > 1:
                valid[:, : k - 1] = False
                valid[:, n - k :] = False
            f_cand, i_cand = np.nonzero(valid)
            if len(i_cand) == 0:
                leaves[idx] = node
                continue
            csum = np.cumsum(y[ords], axis=1)[f_cand, i_cand]
            counts = i_cand + 1
            gain = (
                csum**2 / counts
                + (sum_total - csum) ** 2 / (n - counts)
                - sum_total * sum_total / n
            )
            # First maximum in (feature, position) order.
            best = int(np.argmax(gain))
            if not gain[best] > 1e-12:  # require strictly positive SSE reduction
                leaves[idx] = node
                continue
            f, i = int(f_cand[best]), int(i_cand[best])
            thr = float(0.5 * (xs[f, i] + xs[f, i + 1]))
            go_left = X[idx, f] <= thr
            # A stable filter of the parent's orders is each child's own
            # stable argsort, ties still broken by row index.
            in_left[idx] = go_left
            ords_left = in_left[ords]
            n_left = int(np.count_nonzero(go_left))
            feature[node] = f
            threshold[node] = thr
            lnode, rnode = new_node(), new_node()
            left[node], right[node] = lnode, rnode
            stack.append(
                (lnode, idx[go_left], ords[ords_left].reshape(n_features, n_left), depth + 1)
            )
            stack.append(
                (rnode, idx[~go_left], ords[~ords_left].reshape(n_features, n - n_left), depth + 1)
            )

        self.feature = np.array(feature, dtype=np.int32)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.left = np.array(left, dtype=np.int32)
        self.right = np.array(right, dtype=np.int32)
        self.value = np.array(value, dtype=np.float64)
        return self

    # -- prediction ----------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for a batch of rows (vectorized descent)."""
        if self.feature is None:
            raise RuntimeError("predict called before fit")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        nodes = np.zeros(len(X), dtype=np.int32)
        active = self.feature[nodes] != _LEAF
        while active.any():
            idx = np.nonzero(active)[0]
            cur = nodes[idx]
            f = self.feature[cur]
            go_left = X[idx, f] <= self.threshold[cur]
            nodes[idx] = np.where(go_left, self.left[cur], self.right[cur])
            active[idx] = self.feature[nodes[idx]] != _LEAF
        return self.value[nodes]

    def predict_one(self, x) -> float:
        """Scalar-path prediction for a single row (no array overhead).

        The annealer scores one configuration at a time; batch
        ``predict`` costs ~100x more per row from NumPy dispatch alone.
        """
        if self.feature is None:
            raise RuntimeError("predict called before fit")
        feature = self.feature
        threshold = self.threshold
        left = self.left
        right = self.right
        node = 0
        f = feature[node]
        while f != _LEAF:
            node = left[node] if x[f] <= threshold[node] else right[node]
            f = feature[node]
        return float(self.value[node])

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the fitted tree."""
        if self.feature is None:
            raise RuntimeError("tree not fitted")
        return len(self.feature)

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if self.feature is None:
            raise RuntimeError("tree not fitted")
        depths = np.zeros(self.n_nodes, dtype=np.int32)
        out = 0
        for node in range(self.n_nodes):
            if self.feature[node] != _LEAF:
                for child in (self.left[node], self.right[node]):
                    depths[child] = depths[node] + 1
                    out = max(out, int(depths[child]))
        return out
