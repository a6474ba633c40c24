"""Local search (hill climbing) with random restarts.

The "Local Search" entry of the paper's heuristic catalogue: accept
only improving neighbors; restart from a random configuration when no
progress is made for a while.  Strong on smooth landscapes, prone to
the local minima the paper chose simulated annealing to escape.
"""

from __future__ import annotations

from .base import (
    BudgetedSearch,
    BudgetExhausted,
    Objective,
    SearchResult,
    check_budget,
    rng_for,
)

#: Consecutive non-improving neighbor evaluations before a restart.
PATIENCE = 30


class HillClimbing(BudgetedSearch):
    """First-improvement hill climbing, restarting from a random
    configuration after :data:`PATIENCE` non-improving neighbors."""

    def run(self, objective: Objective, budget: int) -> SearchResult:
        """Minimize with at most ``budget`` evaluations."""
        check_budget(budget)
        rng = rng_for(self.seed)
        # Inherently sequential (each move depends on the previous value),
        # so candidates go to the engine one at a time; cached backends
        # still help when restarts revisit configurations.
        track = self._tracker(objective, budget)
        try:
            while True:
                current = self.space.random_config(rng)
                current_value = track.evaluate(current)
                stale = 0
                while stale < PATIENCE:
                    candidate = self.space.neighbor(current, rng)
                    value = track.evaluate(candidate)
                    if value < current_value:
                        current, current_value = candidate, value
                        stale = 0
                    else:
                        stale += 1
        except BudgetExhausted:
            pass
        return track.result
