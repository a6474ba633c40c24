"""Common interface for the baseline metaheuristics.

The paper (section III-A) picks Simulated Annealing from the heuristics
catalogued by Press et al. — Genetic Algorithms, Ant Colony, Simulated
Annealing, Local Search, Tabu Search — for its behaviour on large
discrete spaces with many local minima.  This package implements the
alternatives so the choice can be ablated at equal evaluation budgets
(``benchmarks/test_bench_ablation_search.py``).

All searchers minimize a plain ``config -> float`` objective over a
:class:`~repro.core.params.ParameterSpace` and stop after exactly
``budget`` objective evaluations, making comparisons budget-fair.

Evaluation is routed through a pluggable
:class:`~repro.core.engine.EvaluationEngine`; population-based searchers
(GA generations, ACO colonies, random sampling) propose whole candidate
batches per engine call so batched/cached backends can amortize work.
The tracker truncates any batch that would overshoot the budget, so the
exact-budget contract holds for every engine and batch size.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.engine import EvaluationEngine, SerialEngine
from ..core.params import ParameterSpace, SystemConfiguration

Objective = Callable[[SystemConfiguration], float]


@dataclass
class SearchResult:
    """Outcome of one budgeted search."""

    best_config: SystemConfiguration
    best_value: float
    evaluations: int


class BudgetTracker:
    """Budget accounting + best-so-far tracking over an evaluation engine.

    Searchers submit candidates one at a time (:meth:`evaluate`) or as
    whole batches (:meth:`evaluate_many`).  A batch that does not fit in
    the remaining budget is truncated — only the first ``remaining``
    candidates are scored — so a run never exceeds ``budget`` even when
    population sizes don't divide it evenly.  When the budget is already
    spent, both methods raise :class:`BudgetExhausted`; searchers catch
    it to terminate cleanly.
    """

    def __init__(
        self, objective: Objective, budget: int, engine: EvaluationEngine
    ) -> None:
        self.objective = objective
        self.budget = budget
        self.engine = engine
        self.result = SearchResult(
            best_config=None,  # type: ignore[arg-type]
            best_value=float("inf"),
            evaluations=0,
        )

    @property
    def remaining(self) -> int:
        """Evaluations left before the budget is spent."""
        return self.budget - self.result.evaluations

    def evaluate(self, config: SystemConfiguration) -> float:
        """Score one configuration (a batch of one)."""
        return self.evaluate_many([config])[0]

    def evaluate_many(
        self, configs: Sequence[SystemConfiguration]
    ) -> list[float]:
        """Score ``configs`` in order, truncating to the remaining budget.

        Returns the values of the configurations actually scored; a
        shorter-than-submitted return means the budget ran out mid-batch
        (the next call will raise :class:`BudgetExhausted`).
        """
        if self.remaining <= 0:
            raise BudgetExhausted()
        configs = list(configs)[: self.remaining]
        values = self.engine.evaluate_batch(self.objective, configs)
        result = self.result
        for config, value in zip(configs, values):
            result.evaluations += 1
            if value < result.best_value:
                result.best_value = value
                result.best_config = config
        assert result.evaluations <= self.budget, (
            f"searcher exceeded its budget: {result.evaluations} > {self.budget}"
        )
        return values


class BudgetedSearch(ABC):
    """Base class handling budget accounting and best-so-far tracking.

    ``engine`` selects the evaluation backend (see
    :mod:`repro.core.engine`); the default is a fresh
    :class:`~repro.core.engine.SerialEngine` per run, which preserves
    the historical one-call-per-configuration semantics exactly.
    """

    def __init__(
        self,
        space: ParameterSpace,
        *,
        seed: int = 0,
        engine: EvaluationEngine | None = None,
    ) -> None:
        self.space = space
        self.seed = seed
        self.engine = engine

    @abstractmethod
    def run(self, objective: Objective, budget: int) -> SearchResult:
        """Minimize ``objective`` using at most ``budget`` evaluations."""

    def _tracker(self, objective: Objective, budget: int) -> BudgetTracker:
        """Budget/best tracker over this searcher's engine."""
        engine = self.engine if self.engine is not None else SerialEngine()
        return BudgetTracker(objective, budget, engine)


class BudgetExhausted(Exception):
    """Raised by the tracked objective when the evaluation budget is spent."""


def check_budget(budget: int) -> None:
    """Validate a search budget."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")


def rng_for(seed: int) -> np.random.Generator:
    """Seeded generator (one per search run)."""
    return np.random.default_rng(seed)
