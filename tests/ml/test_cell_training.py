"""Tuning and the experiment context train a cell exactly as cell_models does."""

import numpy as np
import pytest
from support import model_digest
from test_boosting import GOLDEN_EMIL_MODELS_SHA256

from repro.core import tune_platform
from repro.experiments import default_context
from repro.machines.perfmodel import DNA_SCAN
from repro.ml.transfer import cell_models, evaluate_models, transfer_stats


def _assert_held_out_matches(models, seed):
    held_out = evaluate_models(models, models.data, seed=seed)
    for side, own in (("host", models.host_eval), ("device", models.device_eval)):
        assert own.mean_percent_error == held_out[side].mean_percent_error
        assert own.mean_absolute_error_s == held_out[side].mean_absolute_error_s
        assert (own.n_train, own.n_test) == (held_out[side].n_train, held_out[side].n_test)
        assert np.array_equal(own.predicted, held_out[side].predicted)


class TestGoldenModels:
    @pytest.mark.parametrize("workload", [DNA_SCAN, "dna-paper"], ids=["profile", "named"])
    def test_cell_models_hash_to_the_golden_digest(self, workload):
        # tune_platform's default workload is the raw profile; the named
        # workload derives the identical cell.
        pair = cell_models("emil", workload, seed=0)
        assert model_digest((pair.host_model, pair.device_model)) == GOLDEN_EMIL_MODELS_SHA256

    def test_default_context_models_hash_to_the_golden_digest(self):
        models = default_context(0).models
        pair = (models.host_model, models.device_model)
        assert model_digest(pair) == GOLDEN_EMIL_MODELS_SHA256

    def test_context_held_out_errors_equal_evaluate_models(self):
        _assert_held_out_matches(default_context(0).models, seed=0)

    def test_context_models_have_single_digit_errors(self):
        models = default_context(0).models
        assert models.host_eval.mean_percent_error < 10.0
        assert models.device_eval.mean_percent_error < 10.0


def test_tuning_fills_the_process_model_registry():
    tune_platform("emil", method="SAML", iterations=10, workload="dna-paper")
    before = transfer_stats().as_dict()
    cell_models("emil", "dna-paper", seed=0)
    after = transfer_stats().as_dict()
    assert after["models_memory_hits"] == before["models_memory_hits"] + 1
    assert after["cold_fits"] == before["cold_fits"]
