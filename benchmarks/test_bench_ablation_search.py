"""Ablation — simulated annealing vs the Press et al. alternatives.

Section III-A justifies choosing SA over genetic algorithms, tabu
search and local search.  This bench runs all of them (plus random
search as the floor) at the same 500-evaluation budget on the real
ML-predicted landscape and compares solution quality.
"""

import numpy as np
from conftest import run_once

from repro.core import SimulatedAnnealing, run_em
from repro.core.evaluators import EvaluatorObjective, MeasurementEvaluator
from repro.experiments import render_table
from repro.search import (
    AntColony,
    GeneticAlgorithm,
    HillClimbing,
    RandomSearch,
    TabuSearch,
)

BUDGET = 500
SEEDS = range(4)


def test_metaheuristic_comparison(benchmark, ctx):
    ml = ctx.ml()
    size = 3170.0

    def compare():
        em = run_em(ctx.space, ctx.sim, size)
        measure = MeasurementEvaluator(ctx.sim)
        rows = []

        def measured_quality(config) -> float:
            return measure.evaluate(config, size).value

        # Simulated annealing (the paper's choice).
        sa_times = []
        for s in SEEDS:
            run = SimulatedAnnealing(ctx.space, seed=s).run(
                lambda c: ml.evaluate(c, size), iterations=BUDGET
            )
            sa_times.append(measured_quality(run.best_config))
        rows.append(("SimulatedAnnealing", float(np.mean(sa_times))))

        objective = EvaluatorObjective(ml, size)
        for cls in (TabuSearch, GeneticAlgorithm, HillClimbing, AntColony, RandomSearch):
            times = []
            for s in SEEDS:
                res = cls(ctx.space, seed=s).run(objective, budget=BUDGET)
                times.append(measured_quality(res.best_config))
            rows.append((cls.__name__, float(np.mean(times))))
        return em, rows

    em, rows = run_once(benchmark, compare)
    print()
    print(render_table(
        ["method", "mean measured time [s]"],
        sorted(rows, key=lambda r: r[1]),
        title=f"Metaheuristic ablation @ {BUDGET} evaluations, human genome "
        f"(EM = {em.measured_time:.3f} s)",
        float_format="{:.4f}",
    ))

    by_name = dict(rows)
    sa = by_name["SimulatedAnnealing"]
    # SA is competitive: within 10% of the best method and no worse than
    # random search.
    best = min(by_name.values())
    assert sa <= best * 1.10
    assert sa <= by_name["RandomSearch"] * 1.02
