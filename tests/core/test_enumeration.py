"""Exhaustive enumeration, including the separable fast path."""

import pytest

from repro.core import (
    MeasurementEvaluator,
    ParameterSpace,
    enumerate_best,
    enumerate_best_separable,
)
from repro.machines import PlatformSimulator

SMALL = ParameterSpace(
    host_threads=(12, 48),
    host_affinities=("scatter", "compact"),
    device_threads=(60, 240),
    device_affinities=("balanced",),
    fractions=(0.0, 25.0, 50.0, 75.0, 100.0),
)


class TestEnumerateBest:
    def test_finds_global_minimum(self):
        sim = PlatformSimulator(seed=0)
        ev = MeasurementEvaluator(sim)
        res = enumerate_best(SMALL, ev, 2000.0)
        # Verify against an explicit scan.
        ev2 = MeasurementEvaluator(PlatformSimulator(seed=0))
        energies = [ev2.evaluate(c, 2000.0).value for c in SMALL.iter_configs()]
        assert res.best_energy.value == pytest.approx(min(energies))

    def test_configuration_count(self):
        ev = MeasurementEvaluator(PlatformSimulator(seed=0))
        res = enumerate_best(SMALL, ev, 2000.0)
        assert res.configurations == SMALL.size() == 40


class TestSeparableFastPath:
    def test_identical_to_full_walk(self):
        slow = enumerate_best(
            SMALL, MeasurementEvaluator(PlatformSimulator(seed=3)), 2500.0
        )
        fast = enumerate_best_separable(SMALL, PlatformSimulator(seed=3), 2500.0)
        assert fast.best_config == slow.best_config
        assert fast.best_energy.value == pytest.approx(slow.best_energy.value)

    def test_counts_full_space(self):
        fast = enumerate_best_separable(SMALL, PlatformSimulator(seed=3), 2500.0)
        assert fast.configurations == SMALL.size()

    def test_large_input_prefers_split(self):
        res = enumerate_best_separable(SMALL, PlatformSimulator(seed=0), 3170.0)
        assert 0.0 < res.best_config.host_fraction < 100.0

    def test_small_input_prefers_host_only(self):
        res = enumerate_best_separable(SMALL, PlatformSimulator(seed=0), 100.0)
        assert res.best_config.host_fraction == 100.0
