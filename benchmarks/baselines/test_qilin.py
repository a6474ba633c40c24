"""Qilin-style regression-based partitioning baseline."""

import numpy as np
import pytest

from baselines.qilin import LinearTimeModel, QilinPartitioner, fit_linear_time
from repro.machines import PlatformSimulator
from repro.runtime import run_configuration


class TestLinearTimeModel:
    def test_fit_recovers_exact_line(self):
        sizes = np.array([100.0, 200.0, 400.0])
        times = 0.05 + 0.001 * sizes
        m = fit_linear_time(sizes, times)
        assert m.intercept == pytest.approx(0.05, abs=1e-9)
        assert m.slope == pytest.approx(0.001, abs=1e-12)

    def test_prediction_clipped_at_zero(self):
        m = LinearTimeModel(intercept=-1.0, slope=0.001)
        assert m.time(10.0) == 0.0

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            fit_linear_time(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            fit_linear_time(np.array([1.0, 2.0]), np.array([1.0]))


class TestQilinPartitioner:
    def test_profile_counts_experiments(self):
        sim = PlatformSimulator(seed=0)
        q = QilinPartitioner()
        q.profile(sim, 3170.0)
        assert q.profiling_experiments == 6
        assert sim.experiment_count == 6

    def test_choose_split_before_profile_raises(self):
        with pytest.raises(RuntimeError):
            QilinPartitioner().choose_split(1000.0)

    def test_large_input_split_is_reasonable(self):
        sim = PlatformSimulator(seed=0)
        q = QilinPartitioner()
        q.profile(sim, 3170.0)
        f = q.choose_split(3170.0)
        # The true optimum is ~60/40; linear extrapolation from small
        # profiles lands in the right region.
        assert 35.0 <= f <= 85.0

    def test_small_input_keeps_work_on_host(self):
        sim = PlatformSimulator(seed=0)
        q = QilinPartitioner()
        q.profile(sim, 190.0)
        assert q.choose_split(190.0) == 100.0

    def test_configuration_executes(self):
        sim = PlatformSimulator(seed=0)
        q = QilinPartitioner()
        q.profile(sim, 3170.0)
        cfg = q.configuration(3170.0)
        outcome = run_configuration(sim, cfg, 3170.0)
        # Qilin's split beats both pure executions on the large input.
        host_only = sim.measure_host(48, "scatter", 3170.0)
        device_only = sim.measure_device(240, "balanced", 3170.0)
        assert outcome.total < host_only
        assert outcome.total < device_only

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            QilinPartitioner(profile_fractions=(0.1,))
        with pytest.raises(ValueError):
            QilinPartitioner(profile_fractions=(0.0, 0.5))
