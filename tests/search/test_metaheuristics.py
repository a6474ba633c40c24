"""Baseline metaheuristics: budget discipline and search quality."""

import numpy as np
import pytest

from repro.core import ENGINE_NAMES, ParameterSpace, make_engine
from repro.search import (
    GeneticAlgorithm,
    HillClimbing,
    RandomSearch,
    TabuSearch,
    crossover,
)
from repro.search import hill_climbing

SPACE = ParameterSpace(
    host_threads=(2, 6, 12, 24, 36, 48),
    device_threads=(2, 4, 8, 16, 30, 60, 120, 180, 240),
)

ALL_SEARCHERS = [RandomSearch, HillClimbing, TabuSearch, GeneticAlgorithm]


def objective(config) -> float:
    """Smooth landscape: optimum at 48 threads, 240 device threads, 60%."""
    return (
        0.5
        + abs(config.host_fraction - 60.0) / 100.0
        + (48 - config.host_threads) / 100.0
        + (240 - config.device_threads) / 1000.0
    )


@pytest.mark.parametrize("cls", ALL_SEARCHERS)
class TestCommonContract:
    def test_budget_respected_exactly(self, cls):
        result = cls(SPACE, seed=0).run(objective, budget=97)
        assert result.evaluations == 97
        assert len(result.trace) == 97

    def test_trace_monotone_nonincreasing(self, cls):
        result = cls(SPACE, seed=1).run(objective, budget=200)
        trace = result.trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert trace[-1] == result.best_value

    def test_best_config_is_valid_and_consistent(self, cls):
        result = cls(SPACE, seed=2).run(objective, budget=150)
        assert result.best_config in SPACE
        assert objective(result.best_config) == pytest.approx(result.best_value)

    def test_deterministic_by_seed(self, cls):
        a = cls(SPACE, seed=3).run(objective, budget=100)
        b = cls(SPACE, seed=3).run(objective, budget=100)
        assert a.best_value == b.best_value
        assert a.best_config == b.best_config

    def test_rejects_zero_budget(self, cls):
        with pytest.raises(ValueError):
            cls(SPACE, seed=0).run(objective, budget=0)

    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    def test_engine_preserves_trace_and_best(self, cls, engine_name):
        """Seed determinism across evaluation engines: the backend may
        batch or cache, but never change what the search sees."""
        reference = cls(SPACE, seed=6).run(objective, budget=110)
        engine = make_engine(engine_name, batch_size=13)
        result = cls(SPACE, seed=6, engine=engine).run(objective, budget=110)
        assert result.trace == reference.trace
        assert result.best_config == reference.best_config
        assert result.evaluations == reference.evaluations == 110

    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    def test_engine_respects_exact_budget(self, cls, engine_name):
        """Uneven batches must truncate, never overshoot the budget."""
        engine = make_engine(engine_name, batch_size=7)
        result = cls(SPACE, seed=0, engine=engine).run(objective, budget=97)
        assert result.evaluations == 97
        assert len(result.trace) == 97


class TestSearchQuality:
    def test_informed_methods_beat_random_on_average(self):
        budgets = 300
        rand = np.mean(
            [RandomSearch(SPACE, seed=s).run(objective, budgets).best_value
             for s in range(5)]
        )
        for cls in (HillClimbing, TabuSearch, GeneticAlgorithm):
            informed = np.mean(
                [cls(SPACE, seed=s).run(objective, budgets).best_value
                 for s in range(5)]
            )
            assert informed <= rand * 1.02, cls.__name__

    def test_hill_climbing_reaches_near_optimum(self):
        result = HillClimbing(SPACE, seed=0).run(objective, budget=400)
        assert result.best_value < 0.55

    def test_hill_climbing_restarts_on_stagnation(self, monkeypatch):
        """After PATIENCE non-improving neighbors, the next scored
        configuration is a fresh random one."""
        monkeypatch.setattr(hill_climbing, "PATIENCE", 3)
        starts = []
        random_config = ParameterSpace.random_config

        def recording_random_config(space, rng):
            starts.append(random_config(space, rng))
            return starts[-1]

        monkeypatch.setattr(ParameterSpace, "random_config", recording_random_config)
        seen = []

        def recording(config):
            seen.append(config)
            return objective(config)

        HillClimbing(SPACE, seed=0).run(recording, budget=200)
        # Replay the acceptance rule over what was scored: each chain
        # starts at the next restart and ends after PATIENCE misses.
        restarts = iter(starts)
        stale = 3
        for config in seen:
            if stale == 3:
                assert config == next(restarts)
                current, stale = objective(config), 0
            elif objective(config) < current:
                current, stale = objective(config), 0
            else:
                stale += 1
        assert len(starts) > 2
        assert next(restarts, None) is None


class TestGeneticOperators:
    def test_crossover_inherits_every_field_from_a_parent(self):
        rng = np.random.default_rng(0)
        a = SPACE.random_config(rng)
        b = SPACE.random_config(rng)
        for _ in range(20):
            child = crossover(a, b, rng)
            assert child.host_threads in (a.host_threads, b.host_threads)
            assert child.host_affinity in (a.host_affinity, b.host_affinity)
            assert child.device_threads in (a.device_threads, b.device_threads)
            assert child.device_affinity in (a.device_affinity, b.device_affinity)
            assert child.host_fraction in (a.host_fraction, b.host_fraction)
