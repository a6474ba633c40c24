"""Cell-level checks shared by every tuning entry point."""

import math

import numpy as np
import pytest

from repro import WorkDistributionTuner
from repro.cli import main
from repro.core import TuningOptions, campaign, tune_matrix, tune_platform, tune_scenario
from repro.core.params import ParameterSpace
from repro.core.portfolio import run_portfolio
from repro.core.training import generate_training_data, train_models
from repro.machines import PlatformSimulator
from repro.ml import LinearRegression
from repro.service.store import CellKey

BAD_SIZES = (0.0, -100.0, math.nan, math.inf)

SMALL_SPACE = ParameterSpace(
    host_threads=(12, 48),
    host_affinities=("scatter",),
    device_threads=(60, 240),
    device_affinities=("balanced",),
    fractions=tuple(float(f) for f in range(0, 101, 10)),
)


class TestSizeValidation:
    @pytest.mark.parametrize("size_mb", BAD_SIZES)
    def test_tune_platform_rejects_before_the_em_walk(self, size_mb):
        before = set(campaign._EM_CACHE)
        with pytest.raises(ValueError, match="size_mb"):
            tune_platform("emil", method="SAM", size_mb=size_mb, iterations=10)
        assert set(campaign._EM_CACHE) == before

    @pytest.mark.parametrize("size_mb", (math.nan, math.inf))
    def test_tuner_rejects_a_non_finite_size(self, size_mb):
        tuner = WorkDistributionTuner(space=SMALL_SPACE, seed=0)
        with pytest.raises(ValueError, match="size_mb"):
            tuner.tune(size_mb, method="SAM", iterations=10)

    @pytest.mark.parametrize("size_mb", ("0", "-100", "nan"))
    def test_cli_tune_rejects(self, size_mb, capsys):
        code = main(["tune", "--method", "SAM", "--iterations", "10", "--size-mb", size_mb])
        assert code == 2
        assert "size_mb" in capsys.readouterr().err

    @pytest.mark.parametrize("size_mb", BAD_SIZES)
    def test_cell_key_rejects_a_given_size(self, size_mb):
        with pytest.raises(ValueError, match="size_mb"):
            CellKey.for_request("dna-paper", "emil", size_mb=size_mb)


BAD_ITERATIONS = (0, -5)
METHODS = ("EM", "EML", "SAM", "SAML")


class TestIterationsValidation:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("iterations", BAD_ITERATIONS)
    def test_tune_platform_rejects_before_the_em_walk(self, method, iterations):
        before = set(campaign._EM_CACHE)
        # A seed no other case tunes, so the EM walk would be a fresh one.
        seed = 9871 + 10 * METHODS.index(method) - iterations
        with pytest.raises(ValueError, match="iterations"):
            tune_platform("emil", method=method, iterations=iterations, seed=seed)
        assert set(campaign._EM_CACHE) == before

    @pytest.mark.parametrize("method", METHODS)
    def test_tuner_rejects_for_every_method(self, method):
        tuner = WorkDistributionTuner(space=SMALL_SPACE, seed=0)
        with pytest.raises(ValueError, match="iterations"):
            tuner.tune(1000.0, method=method, iterations=0)

    def test_matrix_rejects_before_fanning_out(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a matrix with a bad budget reached dispatch")

        monkeypatch.setattr(campaign, "run_tasks", forbidden)
        with pytest.raises(ValueError, match="iterations"):
            tune_matrix(
                ["dna-paper"], ["emil"], iterations=0, options=TuningOptions(processes=2)
            )

    def test_portfolio_rejects(self):
        with pytest.raises(ValueError, match="iterations"):
            run_portfolio(SMALL_SPACE, PlatformSimulator(seed=0), 1000.0, iterations=0)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("iterations", BAD_ITERATIONS)
    def test_cell_key_rejects(self, method, iterations):
        with pytest.raises(ValueError, match="iterations"):
            CellKey.for_request("dna-paper", "emil", method=method, iterations=iterations)

    def test_cli_tune_rejects(self, capsys):
        code = main(["tune", "--method", "EM", "--iterations", "0"])
        assert code == 2
        assert "iterations" in capsys.readouterr().err


def test_engine_counters_stay_out_of_report_equality():
    cached = tune_scenario("dna-paper", "emil", method="SAM", seed=5)
    serial = tune_scenario(
        "dna-paper", "emil", method="SAM", seed=5, options=TuningOptions(engine="serial")
    )
    assert cached.report.engine_cache_hits != serial.report.engine_cache_hits
    assert cached == serial


class _CountingLinear(LinearRegression):
    predictions: list = []

    def predict(self, X):
        self.predictions.append(len(X))
        return super().predict(X)


def test_train_models_defers_held_out_prediction():
    data = generate_training_data(
        PlatformSimulator(seed=0),
        sizes_mb=(1000.0, 3170.0),
        fractions=tuple(np.arange(10.0, 101.0, 10.0)),
    )
    _CountingLinear.predictions = []
    models = train_models(data, model_factory=_CountingLinear)
    assert _CountingLinear.predictions == []
    assert models.host_eval.n_test == len(data.host) - len(data.host) // 2
    assert _CountingLinear.predictions != []
