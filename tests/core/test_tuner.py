"""High-level WorkDistributionTuner facade."""

import pytest

from repro import WorkDistributionTuner
from repro.core import ParameterSpace

SMALL_SPACE = ParameterSpace(
    host_threads=(12, 48),
    host_affinities=("scatter",),
    device_threads=(60, 240),
    device_affinities=("balanced",),
    fractions=tuple(float(f) for f in range(0, 101, 10)),
)


@pytest.fixture(scope="module")
def tuner():
    t = WorkDistributionTuner(space=SMALL_SPACE, seed=0)
    # The small space keeps the training grid fast while exercising the
    # full train -> tune pipeline.
    t.train()
    return t


class TestTrain:
    def test_models_have_single_digit_errors(self, tuner):
        assert tuner.models.host_eval.mean_percent_error < 10.0
        assert tuner.models.device_eval.mean_percent_error < 10.0

    def test_training_is_cached_on_the_tuner(self, tuner):
        assert tuner.models is tuner.models  # no retraining on access


class TestTune:
    def test_saml_outcome_beats_both_baselines_on_large_input(self, tuner):
        outcome = tuner.tune(3170.0, method="SAML", iterations=500)
        assert outcome.speedup_vs_host_only > 1.2
        assert outcome.speedup_vs_device_only > 1.5
        assert 0.0 < outcome.config.host_fraction < 100.0

    def test_em_never_worse_than_saml(self, tuner):
        em = tuner.tune(3170.0, method="EM")
        saml = tuner.tune(3170.0, method="SAML", iterations=500)
        assert em.result.measured_time <= saml.result.measured_time + 1e-12

    def test_small_input_keeps_work_on_host(self, tuner):
        outcome = tuner.tune(100.0, method="EM")
        assert outcome.config.host_fraction == 100.0

    def test_rejects_nonpositive_size(self, tuner):
        with pytest.raises(ValueError, match="size_mb"):
            tuner.tune(0.0)

    def test_sam_works_without_training(self):
        t = WorkDistributionTuner(space=SMALL_SPACE, seed=2)
        outcome = t.tune(2000.0, method="SAM", iterations=100)
        assert outcome.result.method == "SAM"


class TestPlatformSelection:
    """Tuner construction from the platform registry."""

    def test_accepts_registry_names(self):
        from repro.machines import FATHOST

        t = WorkDistributionTuner("fathost", seed=0)
        assert t.platform is FATHOST
        assert max(t.space.host_threads) == FATHOST.host_hardware_threads

    def test_default_platform_space_is_the_papers(self):
        from repro.core import DEFAULT_SPACE

        assert WorkDistributionTuner().space is DEFAULT_SPACE

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown platform"):
            WorkDistributionTuner("cray-1")

    def test_sam_tunes_a_deviceless_platform(self):
        t = WorkDistributionTuner("manycore", seed=0)
        outcome = t.tune(800.0, method="SAM", iterations=80)
        assert outcome.config.host_fraction == 100.0
        assert outcome.device_only is None
        with pytest.raises(ValueError, match="no accelerator"):
            outcome.speedup_vs_device_only

    def test_training_rejected_without_a_device(self):
        t = WorkDistributionTuner("manycore", seed=0)
        with pytest.raises(ValueError, match="no accelerator"):
            t.train()
