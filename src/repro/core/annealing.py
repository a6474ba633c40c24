"""Simulated annealing over the system-configuration space (Fig. 3).

The algorithm follows the paper's flowchart exactly:

1. set initial solution, best solution and temperature ``T``;
2. generate a neighbor solution and evaluate it (``E'``);
3. accept if ``E' < E`` or with probability ``p = exp((E - E') / T)``
   (Eq. 4) — at high temperature worse solutions are accepted often,
   which is what lets the search escape local minima;
4. cool ``T = T * (1 - coolingRate)`` (Eq. 3); stop when ``T`` falls
   below :data:`STOP_TEMPERATURE`.

The iteration budget is the one search knob (section IV-C: "We can
adjust the number of iterations ... by changing the initial
temperature, or adjusting the cooling function"): every run names its
budget, and :func:`cooling_rate_for` derives the rate that spends it.
A run returns its best configuration and the iterations it took; it
keeps no per-iteration record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .energy import Energy
from .params import ParameterSpace, SystemConfiguration

#: Temperature below which the schedule stops, in the objective's units
#: (seconds).  With the default initial temperature of 1 s, ``T`` spans
#: three decades whatever the iteration budget.
STOP_TEMPERATURE = 1e-3


def cooling_rate_for(iterations: int, initial_temperature: float) -> float:
    """Cooling rate such that ``T`` decays from ``initial_temperature`` to
    :data:`STOP_TEMPERATURE` in exactly ``iterations`` steps of Eq. 3."""
    if iterations <= 0:
        raise ValueError(f"iterations must be positive, got {iterations}")
    if not 0 < STOP_TEMPERATURE < initial_temperature:
        raise ValueError(
            f"initial_temperature must exceed {STOP_TEMPERATURE}, got {initial_temperature}"
        )
    return 1.0 - (STOP_TEMPERATURE / initial_temperature) ** (1.0 / iterations)


@dataclass
class AnnealingResult:
    """Outcome of one annealing run."""

    best_config: SystemConfiguration
    best_energy: Energy
    iterations: int


class SimulatedAnnealing:
    """The combinatorial-optimization engine of the paper.

    Parameters
    ----------
    space:
        Configuration space providing ``random_config`` and ``neighbor``.
    initial_temperature:
        In the units of the objective (seconds); must exceed
        :data:`STOP_TEMPERATURE`.  The default suits objective scales of
        ~0.1-10 s.
    seed:
        RNG seed (annealing is stochastic; the evaluation averages runs).
    engine:
        Optional :class:`~repro.core.engine.EvaluationEngine` the
        candidate evaluations are routed through.  Annealing proposes
        one neighbor at a time, so batching cannot widen the batch, but
        a cached backend pays off on the frequent revisits; with ``None``
        the evaluator is called directly (historical behavior).
    """

    def __init__(
        self,
        space: ParameterSpace,
        *,
        initial_temperature: float = 1.0,
        seed: int = 0,
        engine=None,
    ) -> None:
        if not 0 < STOP_TEMPERATURE < initial_temperature:
            raise ValueError(
                f"initial_temperature must exceed {STOP_TEMPERATURE}, got {initial_temperature}"
            )
        self.space = space
        self.initial_temperature = initial_temperature
        self.seed = seed
        self.engine = engine

    def run(
        self,
        evaluate: Callable[[SystemConfiguration], Energy],
        *,
        iterations: int,
    ) -> AnnealingResult:
        """Anneal; ``evaluate`` scores candidates (measurement or ML).

        ``iterations`` fixes the number of neighbor evaluations (the
        random initial solution is scored first, so ``evaluate`` runs
        ``iterations + 1`` times) by deriving the cooling rate.
        """
        rng = np.random.default_rng(self.seed)
        rate = cooling_rate_for(iterations, self.initial_temperature)
        if self.engine is not None:
            engine = self.engine

            def score(config: SystemConfiguration) -> Energy:
                return engine.evaluate(evaluate, config)
        else:
            score = evaluate

        current = self.space.random_config(rng)
        current_energy = score(current)
        best, best_energy = current, current_energy

        temperature = self.initial_temperature
        it = 0
        while temperature > STOP_TEMPERATURE:
            it += 1
            candidate = self.space.neighbor(current, rng)
            candidate_energy = score(candidate)
            delta = candidate_energy.value - current_energy.value
            # Eq. 4: p = exp((E - E') / T); note delta = E' - E >= 0.
            if delta < 0 or rng.random() < math.exp(-delta / temperature):
                current, current_energy = candidate, candidate_energy
                if current_energy.value < best_energy.value:
                    best, best_energy = current, current_energy
            temperature *= 1.0 - rate  # Eq. 3
            if it >= iterations:
                break

        return AnnealingResult(best_config=best, best_energy=best_energy, iterations=it)
