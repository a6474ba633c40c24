"""Uniform random search — the weakest sensible baseline.

Any informed method must beat it at equal budget; the ablation bench
checks that simulated annealing does.  Samples are independent, so the
search is batch-native: blocks of :data:`BATCH_SIZE` candidates go to
the engine in one call.
"""

from __future__ import annotations

from .base import BudgetedSearch, BudgetExhausted, Objective, SearchResult, check_budget, rng_for

#: Candidates proposed per engine call.  Affects only how work is
#: chunked, never which configurations are evaluated.
BATCH_SIZE = 64


class RandomSearch(BudgetedSearch):
    """Sample configurations uniformly at random."""

    def run(self, objective: Objective, budget: int) -> SearchResult:
        """Evaluate ``budget`` uniform random configurations."""
        check_budget(budget)
        rng = rng_for(self.seed)
        track = self._tracker(objective, budget)
        try:
            while True:
                n = min(BATCH_SIZE, max(track.remaining, 1))
                track.evaluate_many(
                    [self.space.random_config(rng) for _ in range(n)]
                )
        except BudgetExhausted:
            pass
        return track.result
