"""The tuner and the experiment context train a cell exactly as cell_models does."""

import numpy as np
import pytest
from test_boosting import GOLDEN_EMIL_MODELS_SHA256, model_digest

from repro import WorkDistributionTuner
from repro.experiments import default_context
from repro.ml.transfer import cell_models, evaluate_models, transfer_stats


@pytest.fixture(scope="module")
def tuner_models():
    return WorkDistributionTuner(seed=0).train()


def _assert_held_out_matches(models, seed):
    held_out = evaluate_models(models, models.data, seed=seed)
    for side, own in (("host", models.host_eval), ("device", models.device_eval)):
        assert own.mean_percent_error == held_out[side].mean_percent_error
        assert own.mean_absolute_error_s == held_out[side].mean_absolute_error_s
        assert (own.n_train, own.n_test) == (held_out[side].n_train, held_out[side].n_test)
        assert np.array_equal(own.predicted, held_out[side].predicted)


class TestGoldenModels:
    def test_tuner_models_hash_to_the_golden_digest(self, tuner_models):
        pair = (tuner_models.host_model, tuner_models.device_model)
        assert model_digest(pair) == GOLDEN_EMIL_MODELS_SHA256

    def test_default_context_models_hash_to_the_golden_digest(self):
        models = default_context(0).models
        pair = (models.host_model, models.device_model)
        assert model_digest(pair) == GOLDEN_EMIL_MODELS_SHA256

    def test_tuner_held_out_errors_equal_evaluate_models(self, tuner_models):
        _assert_held_out_matches(tuner_models, seed=0)

    def test_context_held_out_errors_equal_evaluate_models(self):
        _assert_held_out_matches(default_context(0).models, seed=0)


def test_tuner_training_fills_the_process_model_registry():
    WorkDistributionTuner("emil", "dna-paper", seed=0).train()
    before = transfer_stats().as_dict()
    cell_models("emil", "dna-paper", seed=0)
    after = transfer_stats().as_dict()
    assert after["models_memory_hits"] == before["models_memory_hits"] + 1
    assert after["cold_fits"] == before["cold_fits"]
