"""Model persistence round trips."""

import numpy as np
import pytest

from repro.ml import (
    BoostedDecisionTreeRegressor,
    LinearRegression,
    PoissonRegressor,
    RegressionTree,
)
from repro.ml.io import load_model, save_model


@pytest.fixture()
def data():
    rng = np.random.default_rng(0)
    X = rng.random((150, 3))
    y = 1.0 + X @ np.array([2.0, -1.0, 0.5]) + 0.01 * rng.normal(size=150)
    return X, y


class TestRoundTrips:
    def test_regression_tree(self, data, tmp_path):
        X, y = data
        tree = RegressionTree(max_depth=4).fit(X, y)
        path = tmp_path / "tree.npz"
        save_model(path, tree)
        back = load_model(path)
        assert np.array_equal(back.predict(X), tree.predict(X))

    def test_bdtr(self, data, tmp_path):
        X, y = data
        model = BoostedDecisionTreeRegressor(n_estimators=25, max_depth=3).fit(X, y)
        path = tmp_path / "bdtr.npz"
        save_model(path, model)
        back = load_model(path)
        assert np.array_equal(back.predict(X), model.predict(X))
        assert back.predict_one(X[0]) == model.predict_one(X[0])

    def test_linear(self, data, tmp_path):
        X, y = data
        model = LinearRegression(alpha=0.1).fit(X, y)
        path = tmp_path / "lin.npz"
        save_model(path, model)
        back = load_model(path)
        assert np.allclose(back.predict(X), model.predict(X))
        assert back.alpha == model.alpha

    def test_poisson(self, data, tmp_path):
        X, y = data
        model = PoissonRegressor().fit(X, np.abs(y))
        path = tmp_path / "poi.npz"
        save_model(path, model)
        back = load_model(path)
        assert np.allclose(back.predict(X), model.predict(X))


class TestErrors:
    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_model(tmp_path / "x.npz", BoostedDecisionTreeRegressor())
        with pytest.raises(ValueError, match="unfitted"):
            save_model(tmp_path / "x.npz", LinearRegression())

    def test_unsupported_type_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="unsupported"):
            save_model(tmp_path / "x.npz", object())
