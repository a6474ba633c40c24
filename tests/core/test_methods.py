"""The EM / EML / SAM / SAML methods (Table II)."""

import numpy as np
import pytest

from repro.core import (
    METHOD_PROPERTIES,
    MeasurementEvaluator,
    ParameterSpace,
    enumerate_best,
    run_em,
    run_eml,
    run_method,
    run_sam,
    run_saml,
)
from repro.core.training import generate_training_data, train_models
from repro.machines import PlatformSimulator

SPACE = ParameterSpace(
    host_threads=(12, 48),
    host_affinities=("scatter",),
    device_threads=(60, 240),
    device_affinities=("balanced",),
    fractions=tuple(float(f) for f in range(0, 101, 10)),
)


@pytest.fixture(scope="module")
def sim():
    return PlatformSimulator(seed=0)


@pytest.fixture(scope="module")
def ml(sim):
    data = generate_training_data(
        sim,
        sizes_mb=(1000.0, 3170.0),
        fractions=tuple(np.arange(10.0, 101.0, 10.0)),
    )
    return train_models(data).evaluator()


class TestTable2:
    def test_all_four_methods_listed(self):
        assert set(METHOD_PROPERTIES) == {"EM", "EML", "SAM", "SAML"}

    def test_em_is_the_only_optimal_method(self):
        optimal = [m for m, p in METHOD_PROPERTIES.items() if p["accuracy"] == "optimal"]
        assert optimal == ["EM"]

    def test_ml_methods_predict(self):
        for m in ("EML", "SAML"):
            assert METHOD_PROPERTIES[m]["prediction"] == "yes"

    def test_sa_methods_have_medium_effort(self):
        for m in ("SAM", "SAML"):
            assert METHOD_PROPERTIES[m]["effort"] == "medium"


class TestEM:
    def test_em_is_optimal_on_its_space(self, sim):
        em = run_em(SPACE, sim, 3170.0)
        sam = run_sam(SPACE, sim, 3170.0, iterations=200, seed=1)
        assert em.measured_time <= sam.measured_time + 1e-12

    def test_em_counts_full_space(self, sim):
        em = run_em(SPACE, sim, 3170.0)
        assert em.experiments == SPACE.size()

    def test_fast_path_matches_slow_path(self, sim):
        fast = run_em(SPACE, sim, 2000.0)
        slow = enumerate_best(SPACE, MeasurementEvaluator(sim), 2000.0)
        assert fast.config == slow.best_config


class TestSAM:
    def test_respects_iteration_budget(self, sim):
        sam = run_sam(SPACE, sim, 3170.0, iterations=150, seed=0)
        assert sam.search_evaluations == 151  # budget + initial solution

    def test_experiments_bounded_by_evaluations(self, sim):
        sam = run_sam(SPACE, sim, 3170.0, iterations=150, seed=0)
        assert sam.experiments <= sam.search_evaluations


class TestSAMLAndEML:
    def test_saml_uses_one_experiment(self, sim, ml):
        saml = run_saml(SPACE, ml, sim, 3170.0, iterations=300, seed=0)
        assert saml.experiments == 1
        assert saml.method == "SAML"

    def test_saml_near_em(self, sim, ml):
        em = run_em(SPACE, sim, 3170.0)
        saml = run_saml(SPACE, ml, sim, 3170.0, iterations=500, seed=0)
        gap = abs(saml.measured_time - em.measured_time) / em.measured_time
        assert gap < 0.25  # near-optimal on the small space

    def test_eml_walks_whole_space_without_experiments(self, sim, ml):
        eml = run_eml(SPACE, ml, sim, 3170.0)
        assert eml.search_evaluations == SPACE.size()
        assert eml.experiments == 1

    def test_saml_converges_to_eml_with_budget(self, sim, ml):
        """SA on predictions can at best find the prediction-argmin."""
        eml = run_eml(SPACE, ml, sim, 3170.0)
        saml = run_saml(SPACE, ml, sim, 3170.0, iterations=3000, seed=2)
        assert saml.search_energy.value >= eml.search_energy.value - 1e-12


class TestDispatch:
    def test_run_method_names(self, sim, ml):
        for name in ("em", "EML", "Sam", "SAML"):
            res = run_method(name, SPACE, sim, 1000.0, ml=ml, iterations=50)
            assert res.method == name.upper()

    def test_ml_methods_require_evaluator(self, sim):
        with pytest.raises(ValueError, match="requires"):
            run_method("SAML", SPACE, sim, 1000.0)
        with pytest.raises(ValueError, match="requires"):
            run_method("EML", SPACE, sim, 1000.0)

    def test_unknown_method(self, sim):
        with pytest.raises(ValueError, match="unknown method"):
            run_method("GA", SPACE, sim, 1000.0)
