"""Reference oracle: the per-node-argsort CART fit and boosting loop.

This is the original, straightforward fitting algorithm of
:mod:`repro.ml.tree` and :mod:`repro.ml.boosting`: every node re-sorts
every feature of its own rows with a stable ``argsort``, and every
boosting stage re-predicts the full training matrix through the new
tree.  The library's presorted fit must reproduce it bit for bit —
same flat arrays, node numbering included — so the equivalence tests
and the ``training_fit_speedup`` bench both compare against this copy.
:func:`dna_paper_emil_grid` is the real cell they share.
"""

from __future__ import annotations

import numpy as np

from repro.ml import BoostedDecisionTreeRegressor, RegressionTree

_LEAF = -1


def _best_split(X, y, idx, min_samples_leaf):
    """Best (feature, threshold, left_idx, right_idx) or None."""
    n = len(idx)
    y_node = y[idx]
    sum_total = y_node.sum()
    best_gain = 1e-12  # require strictly positive SSE reduction
    best = None
    parent_sse_term = sum_total * sum_total / n

    for f in range(X.shape[1]):
        x = X[idx, f]
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], y_node[order]
        csum = np.cumsum(ys)[:-1]
        counts = np.arange(1, n)
        valid = xs[1:] != xs[:-1]
        k = min_samples_leaf
        if k > 1:
            valid &= (counts >= k) & (n - counts >= k)
        if not valid.any():
            continue
        left_term = csum**2 / counts
        right_term = (sum_total - csum) ** 2 / (n - counts)
        gain = left_term + right_term - parent_sse_term
        gain[~valid] = -np.inf
        i = int(np.argmax(gain))
        if gain[i] > best_gain:
            best_gain = float(gain[i])
            thr = 0.5 * (xs[i] + xs[i + 1])
            left_mask = x <= thr
            best = (f, float(thr), idx[left_mask], idx[~left_mask])
    return best


def reference_tree_fit(
    X, y, max_depth=4, min_samples_split=2, min_samples_leaf=1
) -> RegressionTree:
    """Fit a :class:`RegressionTree` with the per-node-argsort algorithm."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    tree = RegressionTree(
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf,
    )
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

    stack = [(new_node(), np.arange(len(X)), 0)]
    while stack:
        node, idx, depth = stack.pop()
        value[node] = float(y[idx].mean())
        if depth >= max_depth or len(idx) < min_samples_split:
            continue
        split = _best_split(X, y, idx, min_samples_leaf)
        if split is None:
            continue
        f, thr, li, ri = split
        feature[node] = f
        threshold[node] = thr
        lnode, rnode = new_node(), new_node()
        left[node], right[node] = lnode, rnode
        stack.append((lnode, li, depth + 1))
        stack.append((rnode, ri, depth + 1))

    tree.feature = np.array(feature, dtype=np.int32)
    tree.threshold = np.array(threshold, dtype=np.float64)
    tree.left = np.array(left, dtype=np.int32)
    tree.right = np.array(right, dtype=np.int32)
    tree.value = np.array(value, dtype=np.float64)
    return tree


def _boost(model, X, y, current, n_stages):
    """Append ``n_stages`` reference stages to ``model`` in place."""
    rng = np.random.default_rng(model.seed)
    n_sub = max(1, int(round(model.subsample * len(y))))
    for _ in range(n_stages):
        residual = y - current
        if model.subsample < 1.0:
            rows = rng.choice(len(y), size=n_sub, replace=False)
        else:
            rows = slice(None)
        tree = reference_tree_fit(
            X[rows],
            residual[rows],
            max_depth=model.max_depth,
            min_samples_leaf=model.min_samples_leaf,
        )
        current = current + model.learning_rate * tree.predict(X)
        model.trees_.append(tree)
        model.train_loss_.append(float(np.mean((y - current) ** 2)))
    return model


def _clone(model: BoostedDecisionTreeRegressor, n_estimators: int):
    return BoostedDecisionTreeRegressor(
        n_estimators=n_estimators,
        learning_rate=model.learning_rate,
        max_depth=model.max_depth,
        min_samples_leaf=model.min_samples_leaf,
        subsample=model.subsample,
        seed=model.seed,
    )


def reference_boosted_fit(
    model: BoostedDecisionTreeRegressor, X, y
) -> BoostedDecisionTreeRegressor:
    """Reference :meth:`BoostedDecisionTreeRegressor.fit` of an unfitted
    ``model``'s hyper-parameters; returns a new fitted regressor."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = _clone(model, model.n_estimators)
    out.base_prediction_ = float(y.mean())
    current = np.full(len(y), out.base_prediction_)
    return _boost(out, X, y, current, model.n_estimators)


def reference_continue_fit(
    donor: BoostedDecisionTreeRegressor, X, y, n_stages: int
) -> BoostedDecisionTreeRegressor:
    """Reference :meth:`BoostedDecisionTreeRegressor.continue_fit`."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = _clone(donor, len(donor.trees_) + n_stages)
    out.base_prediction_ = donor.base_prediction_
    out.trees_ = list(donor.trees_)
    out.train_loss_ = list(donor.train_loss_)
    return _boost(out, X, y, donor.predict(X), n_stages)


def dna_paper_emil_grid():
    """The seed-0 training grid of the paper's own cell, dna-paper@Emil."""
    from repro.core.params import workload_space
    from repro.core.training import (
        TRAINING_FRACTIONS,
        generate_training_data,
        training_sizes_for,
    )
    from repro.dna.workloads import get_workload
    from repro.machines.simulator import PlatformSimulator
    from repro.machines.spec import EMIL

    dna = get_workload("dna-paper")
    space = workload_space(dna, EMIL)
    return generate_training_data(
        PlatformSimulator(EMIL, dna.profile(), seed=0),
        sizes_mb=training_sizes_for(dna),
        host_threads=space.host_threads,
        host_affinities=space.host_affinities,
        device_threads=space.device_threads,
        device_affinities=space.device_affinities,
        fractions=TRAINING_FRACTIONS,
    )


TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def trees_equal(a: RegressionTree, b: RegressionTree) -> bool:
    """All five flat arrays bit-identical (dtype included)."""
    return all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and np.array_equal(getattr(a, name), getattr(b, name))
        for name in TREE_ARRAYS
    )


def models_equal(a: BoostedDecisionTreeRegressor, b: BoostedDecisionTreeRegressor) -> bool:
    """Same base prediction, per-stage loss, and trees, bit for bit."""
    return (
        a.base_prediction_ == b.base_prediction_
        and a.train_loss_ == b.train_loss_
        and len(a.trees_) == len(b.trees_)
        and all(trees_equal(s, t) for s, t in zip(a.trees_, b.trees_))
    )
