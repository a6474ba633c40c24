"""Simulated annealing engine (Fig. 3, Eqs. 3-4).

A run returns only its best configuration and iteration count, so these
tests observe the chain through a recording objective: the ordered
candidates it scores.
"""

import dataclasses

import pytest

from repro.core import (
    Energy,
    ParameterSpace,
    SimulatedAnnealing,
    cooling_rate_for,
)
from repro.core.annealing import STOP_TEMPERATURE
from support import Recording

SPACE = ParameterSpace(
    host_threads=(2, 6, 12, 24, 36, 48),
    device_threads=(2, 4, 8, 16, 30, 60, 120, 180, 240),
)


def smooth_objective(config) -> Energy:
    """A deterministic landscape with a known optimum at 60/40, 48, 240."""
    t_host = (
        0.5
        + abs(config.host_fraction - 60.0) / 100.0
        + (48 - config.host_threads) / 100.0
    )
    t_device = 0.5 + (240 - config.device_threads) / 500.0
    return Energy(t_host, t_device)


def anneal(objective, *, iterations, seed, **kwargs):
    """Run one chain; return the result and the recording of its candidates."""
    record = Recording(objective)
    result = SimulatedAnnealing(SPACE, seed=seed, **kwargs).run(record, iterations=iterations)
    return result, record.seen


def initial_config(seed: int):
    """The random initial solution a chain with ``seed`` starts from."""
    _result, scored = anneal(smooth_objective, iterations=1, seed=seed)
    return scored[0][0]


def pit_at(center):
    """A landscape whose single global minimum is ``center``; flat elsewhere."""

    def objective(config) -> Energy:
        return Energy(0.0 if config == center else 1.0, 0.0)

    return objective


def fields_changed(a, b) -> int:
    """How many parameters differ between two configurations."""
    return sum(getattr(a, f.name) != getattr(b, f.name) for f in dataclasses.fields(a))


class TestCoolingRate:
    def test_reaches_stop_in_exact_iterations(self):
        rate = cooling_rate_for(100, 1.0)
        t = 1.0
        for _ in range(100):
            t *= 1.0 - rate
        assert t == pytest.approx(STOP_TEMPERATURE, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            cooling_rate_for(0, 1.0)
        with pytest.raises(ValueError):
            cooling_rate_for(10, STOP_TEMPERATURE / 2)


class TestRun:
    @pytest.mark.parametrize("iterations", [1, 137])
    def test_scores_iterations_plus_one_candidates(self, iterations):
        result, scored = anneal(smooth_objective, iterations=iterations, seed=0)
        assert result.iterations == iterations
        assert len(scored) == iterations + 1  # the initial solution, then one per step

    def test_best_is_the_minimum_of_the_scored_candidates(self):
        result, scored = anneal(smooth_objective, iterations=300, seed=1)
        best_value = min(energy.value for _config, energy in scored)
        assert result.best_energy.value == best_value
        first_best = next(c for c, e in scored if e.value == best_value)
        assert result.best_config == first_best

    def test_finds_near_optimum_on_smooth_landscape(self):
        result, _scored = anneal(smooth_objective, iterations=1500, seed=2)
        assert result.best_config.host_threads == 48
        assert abs(result.best_config.host_fraction - 60.0) <= 5.0

    def test_deterministic_by_seed(self):
        a = anneal(smooth_objective, iterations=200, seed=7)
        b = anneal(smooth_objective, iterations=200, seed=7)
        assert a == b

    def test_seeds_score_different_first_candidates(self):
        assert initial_config(1) != initial_config(2)

    def test_high_temperature_leaves_the_global_minimum(self):
        """Eq. 4's escape mechanism: worse moves are accepted when T is high."""
        start = initial_config(4)
        _result, scored = anneal(pit_at(start), iterations=50, seed=4, initial_temperature=5.0)
        assert scored[0][0] == start
        # A candidate two parameters away from the start was proposed from
        # a worse configuration the chain had moved to.
        assert any(fields_changed(config, start) > 1 for config, _e in scored)

    def test_low_temperature_stays_at_the_global_minimum(self):
        start = initial_config(4)
        result, scored = anneal(pit_at(start), iterations=50, seed=4, initial_temperature=0.002)
        assert all(fields_changed(config, start) <= 1 for config, _e in scored)
        assert result.best_config == start

    def test_low_temperature_descends_to_the_optimum(self):
        result, _scored = anneal(
            smooth_objective, iterations=1500, seed=4, initial_temperature=0.002
        )
        assert result.best_energy.value == pytest.approx(0.5)
        assert result.best_config.host_threads == 48
        assert result.best_config.host_fraction == 60.0
        assert result.best_config.device_threads == 240

    def test_initial_temperature_must_exceed_the_stop_temperature(self):
        with pytest.raises(ValueError):
            SimulatedAnnealing(SPACE, initial_temperature=STOP_TEMPERATURE)
