"""Tabu search over the configuration space.

Keeps a bounded FIFO memory of recently visited configurations and, at
each step, moves to the best non-tabu configuration among a sampled
neighborhood — classic Glover-style short-term memory, sized for the
paper's 19 926-point space.
"""

from __future__ import annotations

from collections import deque

from ..core.params import SystemConfiguration
from .base import (
    BudgetedSearch,
    BudgetExhausted,
    Objective,
    SearchResult,
    check_budget,
    rng_for,
)


#: Capacity of the recently-visited memory.
TABU_SIZE = 50
#: Neighbors sampled (and evaluated) per move.
NEIGHBORHOOD = 8


def _key(c: SystemConfiguration) -> tuple:
    return (
        c.host_threads,
        c.host_affinity,
        c.device_threads,
        c.device_affinity,
        c.host_fraction,
        c.extra_devices,
    )


class TabuSearch(BudgetedSearch):
    """Best-of-neighborhood moves with a tabu list: each move samples
    :data:`NEIGHBORHOOD` neighbors and skips the :data:`TABU_SIZE` most
    recently visited configurations.
    """

    def run(self, objective: Objective, budget: int) -> SearchResult:
        """Minimize with at most ``budget`` evaluations.

        The sampled neighborhood is drawn up front, tabu-filtered, and
        scored as one engine batch (the tabu list only changes between
        moves, so the filtered candidate set — and hence the scored
        sequence — matches the historical one-at-a-time loop).
        """
        check_budget(budget)
        rng = rng_for(self.seed)
        track = self._tracker(objective, budget)
        tabu: deque[tuple] = deque(maxlen=TABU_SIZE)
        tabu_set: set[tuple] = set()

        def remember(c: SystemConfiguration) -> None:
            k = _key(c)
            if k in tabu_set:
                return
            if len(tabu) == tabu.maxlen:
                tabu_set.discard(tabu[0])
            tabu.append(k)
            tabu_set.add(k)

        try:
            current = self.space.random_config(rng)
            track.evaluate(current)
            remember(current)
            while True:
                sampled = [
                    self.space.neighbor(current, rng)
                    for _ in range(NEIGHBORHOOD)
                ]
                candidates = [c for c in sampled if _key(c) not in tabu_set]
                best_candidate: SystemConfiguration | None = None
                best_value = float("inf")
                if candidates:
                    values = track.evaluate_many(candidates)
                    for cand, value in zip(candidates, values):
                        if value < best_value:
                            best_candidate, best_value = cand, value
                if best_candidate is None:
                    # Whole sampled neighborhood tabu: diversify.
                    best_candidate = self.space.random_config(rng)
                    track.evaluate(best_candidate)
                current = best_candidate
                remember(current)
        except BudgetExhausted:
            pass
        return track.result
