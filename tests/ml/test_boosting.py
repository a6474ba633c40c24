"""Boosted decision tree regression."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from reference_tree import (
    TREE_ARRAYS,
    dna_paper_emil_grid,
    models_equal,
    reference_boosted_fit,
    reference_continue_fit,
)

from repro.core.training import default_model_factory, train_models
from repro.ml import BoostedDecisionTreeRegressor, RegressionTree, half_split

#: sha256 of the default-factory host + device models of dna-paper@Emil,
#: seed 0 (see :func:`model_digest`).  Stored ``models`` records are keyed
#: by training inputs, not by fit code, so a fit change that moves this
#: digest would silently orphan them: it must come with a
#: ``STORE_SCHEMA_VERSION`` bump.
GOLDEN_EMIL_MODELS_SHA256 = "fd926392d20c9e7950db844ef0134cd2afe8d907826d27fd5cbe649373f92720"


def model_digest(models) -> str:
    """sha256 over every tree's flat arrays, base prediction and losses."""
    h = hashlib.sha256()
    for model in models:
        for tree in model.trees_:
            for name in TREE_ARRAYS:
                h.update(getattr(tree, name).tobytes())
        h.update(np.float64(model.base_prediction_).tobytes())
        h.update(np.asarray(model.train_loss_, dtype=np.float64).tobytes())
    return h.hexdigest()


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
            assert m.predict_one(X[i]) == pytest.approx(batch[i])

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
    def test_blocked_batch_equals_single_rows(self, emil_trained, emil_grid):
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
        model.predict(X[:1])  # the packed ensemble is a one-off cache
        tracemalloc.start()
        try:
            model.predict(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Descending 300 trees x 1440 rows at once peaks at ~12 MB.
        assert len(X) == 1440
        assert peak < 5 * 2**20
