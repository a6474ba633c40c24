"""Genetic algorithm over system configurations.

Per-parameter uniform crossover, single-parameter mutation (reusing the
space's neighbor move), tournament selection with elitism — a standard
discrete GA for the ablation comparison against simulated annealing.
"""

from __future__ import annotations

import numpy as np

from ..core.params import DeviceSlot, SystemConfiguration
from .base import (
    BudgetedSearch,
    BudgetExhausted,
    Objective,
    SearchResult,
    check_budget,
    rng_for,
)

#: Individuals per generation.
POPULATION = 24
#: Probability that an offspring is additionally mutated.
MUTATION_RATE = 0.3
#: Tournament size for parent selection.
TOURNAMENT = 3
#: Best individuals copied unchanged into the next generation.
ELITE = 2


def crossover(
    a: SystemConfiguration, b: SystemConfiguration, rng: np.random.Generator
) -> SystemConfiguration:
    """Uniform crossover: each parameter inherited from a random parent.

    The parameter axes are the generic representation's: host threads,
    host affinity, each device's threads and affinity, and the workload
    split last.  The split axis is inherited as one gene — the whole
    share vector comes from a single parent, so offspring shares always
    sum to 100.  For single-device configurations this is the historical
    5-gene crossover with identical draws.
    """
    n_extra = len(a.extra_devices)
    if len(b.extra_devices) != n_extra:
        raise ValueError("crossover parents must drive the same number of devices")
    pick = rng.random(5 + 2 * n_extra) < 0.5
    share_parent = a if pick[4 + 2 * n_extra] else b
    extra = tuple(
        DeviceSlot(
            (a if pick[4 + 2 * k] else b).extra_devices[k].threads,
            (a if pick[5 + 2 * k] else b).extra_devices[k].affinity,
            share_parent.extra_devices[k].share,
        )
        for k in range(n_extra)
    )
    return SystemConfiguration(
        host_threads=a.host_threads if pick[0] else b.host_threads,
        host_affinity=a.host_affinity if pick[1] else b.host_affinity,
        device_threads=a.device_threads if pick[2] else b.device_threads,
        device_affinity=a.device_affinity if pick[3] else b.device_affinity,
        host_fraction=share_parent.host_fraction,
        extra_devices=extra,
    )


class GeneticAlgorithm(BudgetedSearch):
    """Generational GA with tournament selection and elitism: each
    generation holds :data:`POPULATION` individuals, keeps the
    :data:`ELITE` best, and breeds the rest from :data:`TOURNAMENT`-way
    tournaments, mutating a child with probability :data:`MUTATION_RATE`.
    """

    def run(self, objective: Objective, budget: int) -> SearchResult:
        """Minimize with at most ``budget`` evaluations.

        Each generation's offspring are proposed first and scored as one
        batch (selection only consults the previous generation, so the
        candidate sequence matches the historical child-by-child loop).
        """
        check_budget(budget)
        rng = rng_for(self.seed)
        track = self._tracker(objective, budget)

        try:
            pop = [self.space.random_config(rng) for _ in range(POPULATION)]
            fitness = track.evaluate_many(pop)
            if len(fitness) < len(pop):
                raise BudgetExhausted()
            while True:
                order = np.argsort(fitness)
                next_pop = [pop[i] for i in order[:ELITE]]
                next_fit = [fitness[i] for i in order[:ELITE]]
                children = []
                while len(next_pop) + len(children) < POPULATION:
                    parents = []
                    for _ in range(2):
                        contenders = rng.integers(0, len(pop), size=TOURNAMENT)
                        winner = min(contenders, key=lambda i: fitness[i])
                        parents.append(pop[winner])
                    child = crossover(parents[0], parents[1], rng)
                    if rng.random() < MUTATION_RATE:
                        child = self.space.neighbor(child, rng)
                    children.append(child)
                values = track.evaluate_many(children)
                if len(values) < len(children):  # budget spent mid-generation
                    break
                pop, fitness = next_pop + children, next_fit + values
        except BudgetExhausted:
            pass
        return track.result
