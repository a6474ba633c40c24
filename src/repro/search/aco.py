"""Ant colony optimization over system configurations.

Completes the Press et al. heuristic catalogue the paper cites (section
III-A: "Genetic Algorithms, Ant Colony Optimization, Simulated
Annealing, Local Search, Tabu Search").  Each parameter axis carries a
pheromone vector; ants sample one value per axis proportionally to
pheromone, the best ants deposit, and all trails evaporate — a standard
discrete ACO adapted to a categorical product space.
"""

from __future__ import annotations

import numpy as np

from ..core.params import SystemConfiguration
from .base import (
    BudgetedSearch,
    BudgetExhausted,
    Objective,
    SearchResult,
    check_budget,
    rng_for,
)

#: Configurations sampled (and evaluated) per iteration.
ANTS = 16
#: Per-iteration pheromone decay, in (0, 1).
EVAPORATION = 0.1
#: Pheromone added along the best ant's choices each iteration.
DEPOSIT = 1.0
#: Fraction of each iteration's ants that deposit.
ELITE_FRACTION = 0.25


class AntColony(BudgetedSearch):
    """Pheromone-guided sampling with evaporation and elitist deposit:
    each iteration samples :data:`ANTS` configurations, trails decay by
    :data:`EVAPORATION`, and the best :data:`ELITE_FRACTION` of the ants
    deposit up to :data:`DEPOSIT` along their choices.
    """

    def _axes(self) -> list[tuple]:
        """One pheromone axis per parameter, in the generic axis order.

        Single-device spaces keep the historical five axes (fractions
        last); multi-device spaces carry one threads/affinity axis per
        device and the share-simplex grid as the final axis.
        """
        s = self.space
        if s.num_devices == 1:
            return [
                s.host_threads,
                s.host_affinities,
                s.device_threads,
                s.device_affinities,
                s.fractions,
            ]
        axes: list[tuple] = [s.host_threads, s.host_affinities]
        for threads, affinities in s.device_grids:
            axes.append(threads)
            axes.append(affinities)
        axes.append(s.share_vectors)
        return axes

    def _build(self, choice: list[int], axes: list[tuple]) -> SystemConfiguration:
        if self.space.num_devices == 1:
            return SystemConfiguration(
                host_threads=axes[0][choice[0]],
                host_affinity=axes[1][choice[1]],
                device_threads=axes[2][choice[2]],
                device_affinity=axes[3][choice[3]],
                host_fraction=axes[4][choice[4]],
            )
        return self.space.build_config(
            tuple(axis[i] for axis, i in zip(axes, choice))
        )

    def run(self, objective: Objective, budget: int) -> SearchResult:
        """Minimize with at most ``budget`` evaluations.

        Each colony is sampled first and scored as one engine batch;
        pheromone deposits only happen for complete colonies, matching
        the historical per-ant loop (which aborted mid-colony when the
        budget ran out, before any deposit).
        """
        check_budget(budget)
        rng = rng_for(self.seed)
        track = self._tracker(objective, budget)
        axes = self._axes()
        pheromone = [np.ones(len(axis)) for axis in axes]
        n_elite = max(1, int(round(ELITE_FRACTION * ANTS)))

        try:
            while True:
                choices = [
                    [
                        int(rng.choice(len(axis), p=ph / ph.sum()))
                        for axis, ph in zip(axes, pheromone)
                    ]
                    for _ in range(ANTS)
                ]
                values = track.evaluate_many(
                    [self._build(choice, axes) for choice in choices]
                )
                if len(values) < len(choices):  # budget spent mid-colony
                    break
                colony = sorted(zip(values, choices), key=lambda t: t[0])
                for ph in pheromone:
                    ph *= 1.0 - EVAPORATION
                    ph += 1e-6  # keep every value reachable
                for rank, (value, choice) in enumerate(colony[:n_elite]):
                    share = DEPOSIT / (1 + rank)
                    for axis_idx, value_idx in enumerate(choice):
                        pheromone[axis_idx][value_idx] += share
        except BudgetExhausted:
            pass
        return track.result
