"""Simulated annealing over the system-configuration space (Fig. 3).

The algorithm follows the paper's flowchart exactly:

1. set initial solution, best solution and temperature ``T``;
2. generate a neighbor solution and evaluate it (``E'``);
3. accept if ``E' < E`` or with probability ``p = exp((E - E') / T)``
   (Eq. 4) — at high temperature worse solutions are accepted often,
   which is what lets the search escape local minima;
4. cool ``T = T * (1 - coolingRate)`` (Eq. 3); stop when ``T`` falls
   below the stop temperature.

The iteration budget is controlled through the cooling schedule
(section IV-C: "We can adjust the number of iterations ... by changing
the initial temperature, or adjusting the cooling function");
:func:`cooling_rate_for` computes the rate that yields a wanted budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .energy import Energy
from .params import ParameterSpace, SystemConfiguration


def cooling_rate_for(
    iterations: int, initial_temperature: float, stop_temperature: float
) -> float:
    """Cooling rate such that ``T`` decays from initial to stop in exactly
    ``iterations`` steps of Eq. 3."""
    if iterations <= 0:
        raise ValueError(f"iterations must be positive, got {iterations}")
    if not 0 < stop_temperature < initial_temperature:
        raise ValueError(
            "need 0 < stop_temperature < initial_temperature, got "
            f"{stop_temperature} and {initial_temperature}"
        )
    return 1.0 - (stop_temperature / initial_temperature) ** (1.0 / iterations)


@dataclass(frozen=True)
class AnnealingStep:
    """One iteration of the annealing loop (for convergence plots)."""

    iteration: int
    temperature: float
    candidate_energy: float
    accepted: bool
    current_energy: float
    best_energy: float
    best_config: SystemConfiguration


@dataclass
class AnnealingResult:
    """Outcome of one annealing run."""

    best_config: SystemConfiguration
    best_energy: Energy
    iterations: int
    history: list[AnnealingStep] = field(repr=False, default_factory=list)


class SimulatedAnnealing:
    """The combinatorial-optimization engine of the paper.

    Parameters
    ----------
    space:
        Configuration space providing ``random_config`` and ``neighbor``.
    initial_temperature / stop_temperature:
        Both in the units of the objective (seconds).  The defaults suit
        objective scales of ~0.1-10 s; pass an explicit ``iterations``
        to :meth:`run` to fix the budget regardless (the cooling rate is
        then derived via :func:`cooling_rate_for`).
    cooling_rate:
        Eq. 3 rate; ignored when :meth:`run` receives ``iterations``.
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
        stop_temperature: float = 1e-3,
        cooling_rate: float = 0.005,
        seed: int = 0,
        engine=None,
    ) -> None:
        if not 0 < stop_temperature < initial_temperature:
            raise ValueError("need 0 < stop_temperature < initial_temperature")
        if not 0.0 < cooling_rate < 1.0:
            raise ValueError(f"cooling_rate must be in (0, 1), got {cooling_rate}")
        self.space = space
        self.initial_temperature = initial_temperature
        self.stop_temperature = stop_temperature
        self.cooling_rate = cooling_rate
        self.seed = seed
        self.engine = engine

    def run(
        self,
        evaluate: Callable[[SystemConfiguration], Energy],
        *,
        iterations: int | None = None,
        initial: SystemConfiguration | None = None,
        record_history: bool = True,
    ) -> AnnealingResult:
        """Anneal; ``evaluate`` scores candidates (measurement or ML).

        ``iterations`` fixes the number of candidate evaluations by
        deriving the cooling rate; otherwise the configured
        ``cooling_rate`` decides how many iterations occur.
        """
        rng = np.random.default_rng(self.seed)
        rate = (
            cooling_rate_for(iterations, self.initial_temperature, self.stop_temperature)
            if iterations is not None
            else self.cooling_rate
        )
        if self.engine is not None:
            engine = self.engine

            def score(config: SystemConfiguration) -> Energy:
                return engine.evaluate(evaluate, config)
        else:
            score = evaluate

        current = initial if initial is not None else self.space.random_config(rng)
        current_energy = score(current)
        best, best_energy = current, current_energy

        history: list[AnnealingStep] = []
        temperature = self.initial_temperature
        it = 0
        while temperature > self.stop_temperature:
            it += 1
            candidate = self.space.neighbor(current, rng)
            candidate_energy = score(candidate)
            accepted = False
            delta = candidate_energy.value - current_energy.value
            if delta < 0:
                accepted = True
            else:
                # Eq. 4: p = exp((E - E') / T); note delta = E' - E >= 0.
                p = math.exp(-delta / temperature)
                accepted = rng.random() < p
            if accepted:
                current, current_energy = candidate, candidate_energy
                if current_energy.value < best_energy.value:
                    best, best_energy = current, current_energy
            if record_history:
                history.append(
                    AnnealingStep(
                        iteration=it,
                        temperature=temperature,
                        candidate_energy=candidate_energy.value,
                        accepted=accepted,
                        current_energy=current_energy.value,
                        best_energy=best_energy.value,
                        best_config=best,
                    )
                )
            temperature *= 1.0 - rate  # Eq. 3
            if iterations is not None and it >= iterations:
                break

        return AnnealingResult(
            best_config=best,
            best_energy=best_energy,
            iterations=it,
            history=history,
        )
