"""Boosted decision tree regression."""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_tree import (
    dna_paper_emil_grid,
    models_equal,
    reference_boosted_fit,
    reference_continue_fit,
    reference_predict,
)

from repro.core.training import default_model_factory, train_models
from repro.ml import BoostedDecisionTreeRegressor, RegressionTree, half_split
from repro.ml.boosting import TABLE_MAX_CELLS
from support import model_digest

#: sha256 of the default-factory host + device models of dna-paper@Emil,
#: seed 0 (see :func:`model_digest`).  Stored ``models`` records are keyed
#: by training inputs, not by fit code, so a fit change that moves this
#: digest would silently orphan them: it must come with a
#: ``STORE_SCHEMA_VERSION`` bump.
GOLDEN_EMIL_MODELS_SHA256 = "fd926392d20c9e7950db844ef0134cd2afe8d907826d27fd5cbe649373f92720"


@pytest.fixture(scope="module")
def emil_grid():
    return dna_paper_emil_grid()


@pytest.fixture(scope="module")
def emil_trained(emil_grid):
    return train_models(emil_grid, seed=0)


@pytest.fixture(scope="module")
def emil_host_halves(emil_grid):
    """(train X, train y, held-out X, held-out y) of the host side."""
    ds = emil_grid.host
    train_idx, test_idx = half_split(len(ds), seed=0)
    return ds.X[train_idx], ds.y[train_idx], ds.X[test_idx], ds.y[test_idx]


def make_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 3))
    y = 2.0 * X[:, 0] + np.sin(5 * X[:, 1]) + 0.1 * rng.normal(size=n)
    return X, y


class TestFit:
    def test_training_loss_decreases(self):
        X, y = make_data()
        m = BoostedDecisionTreeRegressor(n_estimators=50, seed=0).fit(X, y)
        assert m.train_loss_[0] > m.train_loss_[-1]
        # Overall trend is monotone within tolerance (LS boosting).
        assert m.train_loss_[-1] < 0.5 * m.train_loss_[0]

    def test_beats_single_tree(self):
        X, y = make_data()
        Xt, yt = make_data(seed=1)
        boost = BoostedDecisionTreeRegressor(n_estimators=100, max_depth=3).fit(X, y)
        tree = RegressionTree(max_depth=3).fit(X, y)
        mse_boost = float(np.mean((boost.predict(Xt) - yt) ** 2))
        mse_tree = float(np.mean((tree.predict(Xt) - yt) ** 2))
        assert mse_boost < mse_tree

    def test_subsample_deterministic_by_seed(self):
        X, y = make_data()
        a = BoostedDecisionTreeRegressor(n_estimators=20, subsample=0.5, seed=3).fit(X, y)
        b = BoostedDecisionTreeRegressor(n_estimators=20, subsample=0.5, seed=3).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            BoostedDecisionTreeRegressor().fit(np.zeros((0, 1)), np.zeros(0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_estimators": 0},
            {"learning_rate": 0.0},
            {"learning_rate": 1.5},
            {"subsample": 0.0},
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            BoostedDecisionTreeRegressor(**kwargs)


class TestPredict:
    def test_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            BoostedDecisionTreeRegressor().predict(np.zeros((1, 1)))
        with pytest.raises(RuntimeError):
            BoostedDecisionTreeRegressor().predict_one([0.0])
        with pytest.raises(RuntimeError):
            BoostedDecisionTreeRegressor().staged_predict(np.zeros((1, 1)))

    def test_predict_one_matches_batch(self):
        X, y = make_data(n=200)
        m = BoostedDecisionTreeRegressor(n_estimators=30).fit(X, y)
        batch = m.predict(X[:5])
        for i in range(5):
            assert m.predict_one(X[i]) == batch[i]

    def test_staged_predict_converges_to_final(self):
        X, y = make_data(n=200)
        m = BoostedDecisionTreeRegressor(n_estimators=25).fit(X, y)
        stages = m.staged_predict(X, every=5)
        assert len(stages) == 5
        assert np.allclose(stages[-1], m.predict(X))

    def test_one_estimator_is_shrunk_tree_plus_mean(self):
        X, y = make_data(n=100)
        m = BoostedDecisionTreeRegressor(n_estimators=1, learning_rate=0.5).fit(X, y)
        expected = y.mean() + 0.5 * m.trees_[0].predict(X)
        assert np.allclose(m.predict(X), expected)


class TestRealCell:
    """The paper's cell: fitted models are pinned, and bit-identical to the
    per-node-argsort reference for every boosting path."""

    def test_golden_model_digest(self, emil_trained):
        models = (emil_trained.host_model, emil_trained.device_model)
        assert model_digest(models) == GOLDEN_EMIL_MODELS_SHA256

    def test_fit_matches_reference(self, emil_trained, emil_host_halves):
        X, y, _, _ = emil_host_halves
        expected = reference_boosted_fit(default_model_factory(), X, y)
        assert models_equal(emil_trained.host_model, expected)

    def test_continue_fit_matches_reference(self, emil_trained, emil_host_halves):
        # Continue the fitted model on the other half: new data, as in a
        # transfer warm start.
        _, _, X, y = emil_host_halves
        donor = emil_trained.host_model
        assert models_equal(
            donor.continue_fit(X, y, 60), reference_continue_fit(donor, X, y, 60)
        )

    def test_subsampled_fit_matches_reference(self, emil_host_halves):
        X, y, _, _ = emil_host_halves
        model = BoostedDecisionTreeRegressor(
            n_estimators=300, learning_rate=0.08, max_depth=6, min_samples_leaf=2,
            subsample=0.7,
        )
        expected = reference_boosted_fit(model, X, y)
        assert models_equal(model.fit(X, y), expected)


class TestBoundedPredict:
    def test_batch_equals_single_rows(self, emil_trained, emil_grid):
        rng = np.random.default_rng(0)
        X = emil_grid.host.X[rng.integers(0, len(emil_grid.host), 4096)]
        X = X * rng.uniform(0.9, 1.1, X.shape)  # land between thresholds too
        model = emil_trained.host_model
        batch = model.predict(X)
        single = np.concatenate([model.predict(row) for row in X])
        assert np.array_equal(batch, single)

    def test_transient_memory_is_bounded(self, emil_trained, emil_host_halves):
        _, _, X, _ = emil_host_halves
        model = emil_trained.host_model
        model.predict(X[:1])  # the compiled table is a one-off cache
        tracemalloc.start()
        try:
            model.predict(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A lookup holds one index per row; descending 300 trees x 1440
        # rows at once would peak at ~12 MB.
        assert len(X) == 1440
        assert peak < 5 * 2**20


def probe_rows(model, n_features, rng, n=120):
    """Rows on thresholds, between them, beyond both ends, and at +-inf."""
    columns = []
    for f in range(n_features):
        cuts = np.unique(np.concatenate(
            [t.threshold[t.feature == f] for t in model.trees_] + [np.zeros(1)]
        ))
        values = np.concatenate([
            cuts, 0.5 * (cuts[1:] + cuts[:-1]), np.nextafter(cuts, np.inf),
            [cuts[0] - 1.0, cuts[-1] + 1.0, -np.inf, np.inf],
        ])
        columns.append(rng.choice(values, n))
    return np.column_stack(columns)


def assert_equals_reference(model, X):
    expected = reference_predict(model, X)
    assert np.array_equal(model.predict(X), expected)
    assert np.array_equal([model.predict_one(row) for row in X], expected)
    assert np.array_equal([model.predict_one(row.tolist()) for row in X], expected)


class TestLookupTable:
    """The compiled table equals per-tree descent bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 120),
        n_features=st.integers(1, 4),
        levels=st.sampled_from([2, 5, None]),
        n_estimators=st.integers(1, 30),
        learning_rate=st.sampled_from([0.08, 0.1, 0.3, 1.0]),
        max_depth=st.integers(0, 5),
        continued=st.integers(0, 10),
    )
    def test_predict_and_predict_one_equal_reference(
        self, seed, n, n_features, levels, n_estimators, learning_rate, max_depth, continued
    ):
        rng = np.random.default_rng(seed)
        # Few-valued columns put probes exactly on thresholds' neighbours.
        X = rng.integers(0, levels, (n, n_features)) * 0.5 if levels else rng.normal(
            size=(n, n_features))
        y = rng.normal(size=n)
        model = BoostedDecisionTreeRegressor(
            n_estimators=n_estimators, learning_rate=learning_rate,
            max_depth=max_depth, min_samples_leaf=1,
        ).fit(X, y)
        if continued:
            model = model.continue_fit(X[::-1], rng.normal(size=n), continued)
        assert_equals_reference(model, probe_rows(model, n_features, rng))

    def test_continue_fit_on_a_real_cell(self, emil_trained, emil_host_halves):
        _, _, X, y = emil_host_halves
        model = emil_trained.host_model.continue_fit(X, y, 20)
        probe = probe_rows(model, X.shape[1], np.random.default_rng(1), n=300)
        assert_equals_reference(model, probe)

    def test_oversized_ensemble_sums_per_tree_descents(self):
        rng = np.random.default_rng(0)
        X = rng.random((400, 3))
        y = np.sin(7 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=400)
        model = BoostedDecisionTreeRegressor(n_estimators=60, max_depth=4).fit(X, y)
        cells = np.prod([
            len(np.unique(np.concatenate([t.threshold[t.feature == f] for t in model.trees_])))
            + 1
            for f in range(3)
        ])
        assert cells > TABLE_MAX_CELLS
        probe = probe_rows(model, 3, rng, n=60)
        assert_equals_reference(model, probe)
        assert np.array_equal(model.predict(probe), model.staged_predict(probe)[-1])

    def test_refit_drops_the_table(self):
        X, y = make_data(n=150)
        model = BoostedDecisionTreeRegressor(n_estimators=10).fit(X, y)
        model.predict(X)
        model.fit(X, -y)
        assert_equals_reference(model, X[:40])

    def test_pickle_leaves_the_table_behind(self):
        X, y = make_data(n=150)
        model = BoostedDecisionTreeRegressor(n_estimators=10).fit(X, y)
        before = len(pickle.dumps(model))
        model.predict(X)
        assert len(pickle.dumps(model)) == before
        assert np.array_equal(pickle.loads(pickle.dumps(model)).predict(X), model.predict(X))
