"""Simulated annealing engine (Fig. 3, Eqs. 3-4)."""

import numpy as np
import pytest

from repro.core import (
    Energy,
    ParameterSpace,
    SimulatedAnnealing,
    cooling_rate_for,
)

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


class TestCoolingRate:
    def test_reaches_stop_in_exact_iterations(self):
        rate = cooling_rate_for(100, 1.0, 1e-3)
        t = 1.0
        for _ in range(100):
            t *= 1.0 - rate
        assert t == pytest.approx(1e-3, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            cooling_rate_for(0, 1.0, 0.1)
        with pytest.raises(ValueError):
            cooling_rate_for(10, 1.0, 2.0)


class TestRun:
    def test_respects_iteration_budget(self):
        sa = SimulatedAnnealing(SPACE, seed=0)
        res = sa.run(smooth_objective, iterations=137)
        assert res.iterations == 137
        assert len(res.history) == 137

    def test_best_trace_is_monotone_nonincreasing(self):
        sa = SimulatedAnnealing(SPACE, seed=1)
        res = sa.run(smooth_objective, iterations=300)
        bests = [s.best_energy for s in res.history]
        assert all(a >= b for a, b in zip(bests, bests[1:]))

    def test_finds_near_optimum_on_smooth_landscape(self):
        sa = SimulatedAnnealing(SPACE, seed=2)
        res = sa.run(smooth_objective, iterations=1500)
        assert res.best_config.host_threads == 48
        assert abs(res.best_config.host_fraction - 60.0) <= 5.0

    def test_deterministic_by_seed(self):
        a = SimulatedAnnealing(SPACE, seed=7).run(smooth_objective, iterations=200)
        b = SimulatedAnnealing(SPACE, seed=7).run(smooth_objective, iterations=200)
        assert a.best_config == b.best_config
        assert a.best_energy.value == b.best_energy.value

    def test_seeds_explore_differently(self):
        a = SimulatedAnnealing(SPACE, seed=1).run(smooth_objective, iterations=50)
        b = SimulatedAnnealing(SPACE, seed=2).run(smooth_objective, iterations=50)
        assert (
            a.history[0].candidate_energy != b.history[0].candidate_energy
            or a.best_config != b.best_config
        )

    def test_improvements_always_accepted(self):
        sa = SimulatedAnnealing(SPACE, seed=3)
        res = sa.run(smooth_objective, iterations=400)
        for prev, step in zip(res.history, res.history[1:]):
            if step.candidate_energy < prev.current_energy:
                assert step.accepted

    def test_accepts_some_worse_solutions_at_high_temperature(self):
        sa = SimulatedAnnealing(SPACE, seed=4, initial_temperature=5.0)
        res = sa.run(smooth_objective, iterations=300)
        early = res.history[:50]
        worse_accepted = [
            s for p, s in zip(early, early[1:])
            if s.accepted and s.candidate_energy > p.current_energy
        ]
        assert worse_accepted  # Eq. 4's escape mechanism is alive

    def test_initial_solution_honored(self):
        rng = np.random.default_rng(0)
        start = SPACE.random_config(rng)
        sa = SimulatedAnnealing(SPACE, seed=5)
        res = sa.run(smooth_objective, iterations=10, initial=start)
        assert res.best_energy.value <= smooth_objective(start).value + 1e-12

    def test_history_can_be_disabled(self):
        sa = SimulatedAnnealing(SPACE, seed=6)
        res = sa.run(smooth_objective, iterations=50, record_history=False)
        assert res.history == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_temperature": 0.1, "stop_temperature": 0.2},
            {"cooling_rate": 0.0},
            {"cooling_rate": 1.0},
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimulatedAnnealing(SPACE, **kwargs)

    def test_cooling_rate_mode_terminates(self):
        sa = SimulatedAnnealing(
            SPACE, seed=10, initial_temperature=1.0, stop_temperature=0.5,
            cooling_rate=0.1,
        )
        res = sa.run(smooth_objective)
        # T halves in ~7 steps of 10% cooling.
        assert 5 <= res.iterations <= 9
