"""Objective (Eq. 2) and the measurement/ML evaluators."""

import pytest

from repro.core import Energy, EvaluatorObjective, MeasurementEvaluator, MLEvaluator
from repro.core.params import SystemConfiguration
from repro.machines import PlatformSimulator


def config(fraction=60.0, **kw):
    base = dict(
        host_threads=48,
        host_affinity="scatter",
        device_threads=240,
        device_affinity="balanced",
        host_fraction=fraction,
    )
    base.update(kw)
    return SystemConfiguration(**base)


class TestEnergy:
    def test_value_is_max(self):
        assert Energy(1.0, 2.0).value == 2.0
        assert Energy(3.0, 2.0).value == 3.0

    def test_ordering(self):
        assert Energy(1.0, 1.0) < Energy(2.0, 0.1)

    @pytest.mark.parametrize(
        "parts, expected",
        [((1.0, 2.0, (3.0,)), 3.0), ((4.0, 2.0, (3.0, 1.0)), 4.0), ((1.0, 5.0, (0.5,)), 5.0)],
        ids=["extra-card-dominates", "host-dominates", "primary-dominates"],
    )
    def test_value_is_max_over_every_card(self, parts, expected):
        t_host, t_device, t_extra = parts
        assert Energy(t_host, t_device, t_extra).value == expected

    def test_t_devices_lists_the_primary_card_first(self):
        assert Energy(1.0, 2.0).t_devices == (2.0,)
        assert Energy(1.0, 2.0, (3.0, 4.0)).t_devices == (2.0, 3.0, 4.0)

    def test_ordering_compares_multi_device_values(self):
        assert Energy(1.0, 1.0, (0.5,)) < Energy(0.1, 0.1, (2.0,))
        assert not Energy(0.1, 0.1, (2.0,)) < Energy(1.0, 1.0, (0.5,))

    def test_energy_is_immutable(self):
        energy = Energy(1.0, 2.0)
        with pytest.raises(AttributeError):
            energy.t_host = 0.0


class TestMeasurementEvaluator:
    def test_counts_distinct_configurations(self):
        ev = MeasurementEvaluator(PlatformSimulator(seed=0))
        ev.evaluate(config(60.0), 1000.0)
        ev.evaluate(config(60.0), 1000.0)  # cached
        ev.evaluate(config(50.0), 1000.0)
        assert ev.evaluations == 2

    def test_cache_returns_identical_energy(self):
        ev = MeasurementEvaluator(PlatformSimulator(seed=0))
        a = ev.evaluate(config(), 1000.0)
        b = ev.evaluate(config(), 1000.0)
        assert a == b

    def test_zero_fraction_side_costs_nothing(self):
        ev = MeasurementEvaluator(PlatformSimulator(seed=0))
        host_only = ev.evaluate(config(100.0), 1000.0)
        assert host_only.t_device == 0.0
        device_only = ev.evaluate(config(0.0), 1000.0)
        assert device_only.t_host == 0.0

    def test_energy_matches_simulator_times(self):
        sim = PlatformSimulator(seed=0)
        ev = MeasurementEvaluator(sim)
        e = ev.evaluate(config(60.0), 1000.0)
        assert e.t_host == pytest.approx(sim.measure_host(48, "scatter", 600.0))
        assert e.t_device == pytest.approx(sim.measure_device(240, "balanced", 400.0))


class _ConstModel:
    def __init__(self, value):
        self.value = value

    def fit(self, X, y):
        return self

    def predict(self, X):
        import numpy as np

        return np.full(len(X), self.value)


class TestMLEvaluator:
    def test_energy_is_max_of_predictions(self):
        ev = MLEvaluator(_ConstModel(1.0), _ConstModel(2.0))
        assert ev.evaluate(config(60.0), 1000.0).value == 2.0

    def test_zero_share_sides_skip_prediction(self):
        ev = MLEvaluator(_ConstModel(1.0), _ConstModel(2.0))
        assert ev.evaluate(config(100.0), 1000.0).value == 1.0
        assert ev.evaluate(config(0.0), 1000.0).value == 2.0

    def test_negative_predictions_clipped(self):
        ev = MLEvaluator(_ConstModel(-5.0), _ConstModel(-5.0))
        e = ev.evaluate(config(50.0), 1000.0)
        assert e.t_host > 0.0 and e.t_device > 0.0

    def test_evaluation_counter(self):
        ev = MLEvaluator(_ConstModel(1.0), _ConstModel(1.0))
        ev.evaluate(config(50.0), 1000.0)
        ev.evaluate(config(50.0), 1000.0)
        assert ev.evaluations == 2  # counts calls, caching is internal


class TestMakeObjective:
    def test_adapts_to_plain_callable(self):
        ev = MLEvaluator(_ConstModel(1.0), _ConstModel(3.0))
        obj = EvaluatorObjective(ev, 1000.0)
        assert obj(config(50.0)) == 3.0
