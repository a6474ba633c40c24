"""Tuner model persistence: train once, tune from disk."""

import numpy as np
import pytest

from repro import WorkDistributionTuner
from repro.core import ParameterSpace

SPACE = ParameterSpace(
    host_threads=(12, 48),
    host_affinities=("scatter",),
    device_threads=(60, 240),
    device_affinities=("balanced",),
    fractions=tuple(float(f) for f in range(0, 101, 10)),
)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tuner = WorkDistributionTuner(space=SPACE, seed=0)
    tuner.train()
    directory = tmp_path_factory.mktemp("models")
    tuner.save_models(directory)
    return tuner, directory


class TestPersistence:
    def test_save_writes_three_files(self, trained):
        _, directory = trained
        assert (directory / "host_model.npz").exists()
        assert (directory / "device_model.npz").exists()
        assert (directory / "tuner_meta.json").exists()

    def test_loaded_tuner_predicts_identically(self, trained):
        tuner, directory = trained
        fresh = WorkDistributionTuner(space=SPACE, seed=0)
        fresh.load_models(directory)
        from repro.core.params import SystemConfiguration

        cfg = SystemConfiguration(48, "scatter", 240, "balanced", 60.0)
        a = tuner.models.evaluator().evaluate(cfg, 2000.0)
        b = fresh.models.evaluator().evaluate(cfg, 2000.0)
        assert a.t_host == pytest.approx(b.t_host)
        assert a.t_device == pytest.approx(b.t_device)

    def test_loaded_tuner_tunes_without_training(self, trained):
        _, directory = trained
        fresh = WorkDistributionTuner(space=SPACE, seed=0)
        fresh.load_models(directory)
        outcome = fresh.tune(3170.0, method="SAML", iterations=300)
        assert outcome.speedup_vs_host_only > 1.0

    def test_platform_mismatch_rejected(self, trained, tmp_path):
        _, directory = trained
        from repro.machines import EMIL
        from dataclasses import replace

        other = WorkDistributionTuner(
            platform=replace(EMIL, name="OtherBox"), space=SPACE
        )
        with pytest.raises(ValueError, match="platform"):
            other.load_models(directory)
