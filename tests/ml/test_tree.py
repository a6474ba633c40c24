"""CART regression tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_tree import TREE_ARRAYS, reference_tree_fit

from repro.ml import RegressionTree
from repro.ml.tree import presort


class TestFit:
    def test_constant_target(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        tree = RegressionTree().fit(X, np.full(10, 3.5))
        assert np.allclose(tree.predict(X), 3.5)
        assert tree.n_nodes == 1  # no split has positive gain

    def test_recovers_step_function(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = (X[:, 0] >= 10).astype(float)
        tree = RegressionTree(max_depth=1).fit(X, y)
        assert np.allclose(tree.predict(X), y)
        assert tree.depth == 1

    def test_picks_informative_feature(self):
        rng = np.random.default_rng(0)
        X = rng.random((200, 3))
        y = (X[:, 1] > 0.5).astype(float)  # only feature 1 matters
        tree = RegressionTree(max_depth=1).fit(X, y)
        assert tree.feature[0] == 1

    def test_max_depth_zero_is_stump(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        tree = RegressionTree(max_depth=0).fit(X, X[:, 0])
        assert tree.n_nodes == 1
        assert np.allclose(tree.predict(X), X[:, 0].mean())

    def test_min_samples_leaf_respected(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = (X[:, 0] >= 9).astype(float)  # best split isolates one sample
        tree = RegressionTree(max_depth=1, min_samples_leaf=3).fit(X, y)
        if tree.feature[0] != -1:  # if it split at all
            thr = tree.threshold[0]
            left = np.count_nonzero(X[:, 0] <= thr)
            assert left >= 3 and len(X) - left >= 3

    def test_deeper_trees_fit_better(self):
        rng = np.random.default_rng(1)
        X = rng.random((300, 2))
        y = np.sin(6 * X[:, 0]) + X[:, 1]
        errs = []
        for depth in (1, 3, 6):
            tree = RegressionTree(max_depth=depth).fit(X, y)
            errs.append(float(np.mean((tree.predict(X) - y) ** 2)))
        assert errs[0] > errs[1] > errs[2]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            RegressionTree().fit(np.zeros((0, 1)), np.zeros(0))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="mismatch"):
            RegressionTree().fit(np.zeros((3, 1)), np.zeros(2))

    @pytest.mark.parametrize(
        "kwargs", [{"max_depth": -1}, {"min_samples_split": 1}, {"min_samples_leaf": 0}]
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            RegressionTree(**kwargs)


class TestPredict:
    def test_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((1, 1)))
        with pytest.raises(RuntimeError):
            RegressionTree().predict_one([0.0])

    def test_predict_one_matches_batch(self):
        rng = np.random.default_rng(2)
        X = rng.random((100, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 0.0])
        tree = RegressionTree(max_depth=5).fit(X, y)
        batch = tree.predict(X[:10])
        for i in range(10):
            assert tree.predict_one(X[i]) == pytest.approx(batch[i])

    def test_predictions_within_target_range(self):
        rng = np.random.default_rng(3)
        X = rng.random((200, 3))
        y = rng.random(200)
        tree = RegressionTree(max_depth=8).fit(X, y)
        preds = tree.predict(rng.random((50, 3)))
        assert preds.min() >= y.min() - 1e-12
        assert preds.max() <= y.max() + 1e-12

    def test_single_row_input(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        tree = RegressionTree().fit(X, X[:, 0])
        assert tree.predict(np.array([5.0])).shape == (1,)


@st.composite
def design(draw):
    """(X, y) with the value structure the split search must get right:
    constant, binary, few-valued (heavy ties) and continuous columns,
    and targets that are either continuous or tie-prone integers."""
    n = draw(st.integers(1, 300))
    n_features = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(
        st.sampled_from(["constant", "binary", "few", "continuous"]),
        min_size=n_features, max_size=n_features,
    )):
        if kind == "constant":
            columns.append(np.full(n, rng.normal()))
        elif kind == "binary":
            columns.append(rng.integers(0, 2, n).astype(float))
        elif kind == "few":
            columns.append(rng.integers(0, draw(st.integers(2, 8)), n) * 0.5)
        else:
            columns.append(rng.normal(size=n))
    if draw(st.booleans()):
        y = rng.integers(0, 4, n).astype(float)
    else:
        y = rng.normal(size=n)
    return np.column_stack(columns), y


class TestReferenceEquivalence:
    """The presorted fit reproduces the per-node-argsort reference exactly:
    same flat arrays, node numbering and tie-breaking included."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=design(),
        max_depth=st.integers(0, 6),
        min_samples_leaf=st.sampled_from([1, 2, 3, 7]),
    )
    def test_flat_arrays_match_reference(self, data, max_depth, min_samples_leaf):
        X, y = data
        params = dict(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
        expected = reference_tree_fit(X, y, **params)
        leaves = np.empty(len(X), dtype=np.intp)
        tree = RegressionTree(**params).fit(X, y, leaves=leaves)
        for name in TREE_ARRAYS:
            ours, theirs = getattr(tree, name), getattr(expected, name)
            assert ours.dtype == theirs.dtype, name
            assert np.array_equal(ours, theirs), name
        # The reported leaves are where predict() sends the training rows.
        assert np.array_equal(tree.value[leaves], tree.predict(X))

    def test_presort_breaks_ties_by_row(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        assert presort(X).tolist() == [[1, 3, 0, 2], [0, 1, 2, 3]]
