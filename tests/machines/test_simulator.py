"""Measurement simulator: determinism, noise, experiment accounting."""

import pytest

from repro.machines import PlatformSimulator


@pytest.fixture()
def sim():
    return PlatformSimulator(seed=7)


class TestDeterminism:
    def test_same_config_same_measurement(self, sim):
        a = sim.measure_host(24, "scatter", 1000.0)
        b = sim.measure_host(24, "scatter", 1000.0)
        assert a == b

    def test_different_seeds_differ(self):
        a = PlatformSimulator(seed=1).measure_host(24, "scatter", 1000.0)
        b = PlatformSimulator(seed=2).measure_host(24, "scatter", 1000.0)
        assert a != b

    def test_different_configs_get_independent_noise(self, sim):
        t1 = sim.measure_host(24, "scatter", 1000.0)
        t2 = sim.measure_host(24, "scatter", 1000.0001)
        assert t1 != t2


class TestNoise:
    def test_noise_free_measurement_matches_true_time(self):
        sim = PlatformSimulator(noise=False)
        assert sim.measure_host(24, "scatter", 1000.0) == sim.true_host_time(
            24, "scatter", 1000.0
        )

    def test_noise_is_bounded_percent(self, sim):
        t = sim.measure_host(24, "scatter", 1000.0)
        truth = sim.true_host_time(24, "scatter", 1000.0)
        assert abs(t - truth) / truth < 0.15  # 2% sigma, far tail excluded

    def test_device_noise_bounded(self, sim):
        t = sim.measure_device(120, "balanced", 1000.0)
        truth = sim.true_device_time(120, "balanced", 1000.0)
        assert abs(t - truth) / truth < 0.15


class TestAccounting:
    def test_measurements_are_counted(self, sim):
        sim.measure_host(24, "scatter", 100.0)
        sim.measure_device(60, "balanced", 100.0)
        assert sim.experiment_count == 2

    def test_oracle_access_is_free(self, sim):
        sim.true_host_time(24, "scatter", 100.0)
        sim.true_device_time(60, "balanced", 100.0)
        assert sim.experiment_count == 0

    def test_log_records_order_and_sides(self, sim):
        sim.measure_host(24, "scatter", 100.0)
        sim.measure_device(60, "balanced", 200.0)
        log = sim.log
        assert [m.side for m in log] == ["host", "device"]
        assert log[1].mb == 200.0
