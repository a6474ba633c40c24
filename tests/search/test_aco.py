"""Ant colony optimization searcher."""

import numpy as np

from repro.core import ParameterSpace
from repro.search import AntColony, RandomSearch

SPACE = ParameterSpace(
    host_threads=(2, 6, 12, 24, 36, 48),
    device_threads=(2, 4, 8, 16, 30, 60, 120, 180, 240),
)


def objective(config) -> float:
    return (
        0.5
        + abs(config.host_fraction - 60.0) / 100.0
        + (48 - config.host_threads) / 100.0
        + (240 - config.device_threads) / 1000.0
    )


class TestContract:
    def test_budget_respected(self):
        result = AntColony(SPACE, seed=0).run(objective, budget=123)
        assert result.evaluations == 123

    def test_trace_monotone(self):
        result = AntColony(SPACE, seed=1).run(objective, budget=200)
        assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))

    def test_deterministic_by_seed(self):
        a = AntColony(SPACE, seed=2).run(objective, budget=100)
        b = AntColony(SPACE, seed=2).run(objective, budget=100)
        assert a.best_config == b.best_config

    def test_best_config_in_space(self):
        result = AntColony(SPACE, seed=3).run(objective, budget=100)
        assert result.best_config in SPACE


class TestQuality:
    def test_pheromone_concentrates_on_good_values(self):
        result = AntColony(SPACE, seed=4).run(objective, budget=600)
        assert result.best_config.host_threads >= 36
        assert abs(result.best_config.host_fraction - 60.0) <= 15.0

    def test_competitive_with_random(self):
        aco = np.mean(
            [AntColony(SPACE, seed=s).run(objective, 400).best_value for s in range(4)]
        )
        rand = np.mean(
            [RandomSearch(SPACE, seed=s).run(objective, 400).best_value for s in range(4)]
        )
        assert aco <= rand * 1.02
