#!/usr/bin/env python
"""Pinned digests of every searcher and tuning method.

``tests/goldens/digests.json`` maps one case name to one sha256 digest.
``tests/goldens/test_goldens.py`` recomputes every case and compares, so
a change that moves any searcher's trajectory or any method's result
fails there, by name.

Searcher cases (``search/<name>/<objective>/seed<k>``) run the annealer
(SA) and the five baseline searchers (RS, HC, TABU, GA, ACO) on
dna-paper@emil against a measured and a predicted objective at two
seeds.  Each digest hashes the codec encoding of the result's fields
plus the ordered ``(config, value)`` list a recording objective saw, so
it pins the whole candidate sequence, not only the winner.

Method cells (``method/<name>/<cell>``) run
:func:`~repro.core.campaign.tune_platform` for EM, EML, SAM and SAML on
dna-paper@emil and on the 2-device ``dualphi`` node, EM with
``refine=2.5`` on ``dualphi``, and SAM on the deviceless ``manycore``
node.  Each digest hashes the codec encoding of the report's compared
fields (engine counters are not part of a report's equality, so they
are left out here too).

Usage, from the repository root::

    PYTHONPATH=src python tools/regen_goldens.py  # rewrite the file

To compare without rewriting, run ``pytest tests/goldens -q``, which
names each digest that moved.  Regenerate only for a change that is
meant to move results, and say so where the change is recorded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Callable

REPO = Path(__file__).resolve().parent.parent
GOLDENS = REPO / "tests" / "goldens" / "digests.json"

SEARCHERS = ("SA", "RS", "HC", "TABU", "GA", "ACO")
OBJECTIVES = ("measured", "predicted")
SEEDS = (0, 1)
#: Objective scores per searcher run (the annealer's initial solution
#: included).
BUDGET = 150

#: ``(method, cell, platform, size_mb, refine)`` of each method cell.
METHOD_CELLS = tuple(
    (method, cell, platform, size_mb, None)
    for cell, platform, size_mb in (
        ("dna-paper@emil", "emil", 3170.0),
        ("dna-paper@dualphi", "dualphi", 1000.0),
    )
    for method in ("EM", "EML", "SAM", "SAML")
) + (
    ("EM", "dna-paper@dualphi+refine2.5", "dualphi", 1000.0, 2.5),
    ("SAM", "dna-paper@manycore", "manycore", 3170.0, None),
)
METHOD_ITERATIONS = 200


def _sha256(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fields(obj: Any, names: tuple[str, ...]) -> dict[str, Any]:
    from repro.codec import encode

    return {name: encode(getattr(obj, name)) for name in names}


class _Recording:
    """A ``config -> value`` objective that logs every call in order."""

    def __init__(self, objective: Callable) -> None:
        self.objective = objective
        self.seen: list[list[Any]] = []

    def __call__(self, config):
        from repro.codec import encode

        value = self.objective(config)
        self.seen.append([encode(config), encode(value)])
        return value


def _emil_cell():
    from repro.dna.workloads import resolve_workload
    from repro.core.params import cell_space
    from repro.machines.registry import get_platform
    from repro.machines.simulator import PlatformSimulator

    spec = get_platform("emil")
    workload_spec, profile = resolve_workload("dna-paper")
    space = cell_space(spec, workload_spec)
    return spec, workload_spec, space, PlatformSimulator(spec, profile, seed=0)


def search_case(name: str, objective: str, seed: int) -> str:
    """Digest of one searcher run on dna-paper@emil."""
    from repro.core import EnergyObjective, EvaluatorObjective, MeasurementEvaluator
    from repro.core.annealing import SimulatedAnnealing
    from repro.ml.transfer import cell_models
    from repro import search

    spec, workload_spec, space, sim = _emil_cell()
    if objective == "measured":
        evaluator = MeasurementEvaluator(sim)
    else:
        evaluator = cell_models(spec, workload_spec, space, seed=0).evaluator()
    size_mb = workload_spec.sequence_mb
    if name == "SA":
        record = _Recording(EnergyObjective(evaluator, size_mb))
        run = SimulatedAnnealing(space, seed=seed).run(record, iterations=BUDGET - 1)
        result = _fields(run, ("best_config", "best_energy", "iterations"))
    else:
        searcher = {
            "RS": search.RandomSearch,
            "HC": search.HillClimbing,
            "TABU": search.TabuSearch,
            "GA": search.GeneticAlgorithm,
            "ACO": search.AntColony,
        }[name](space, seed=seed)
        record = _Recording(EvaluatorObjective(evaluator, size_mb))
        res = searcher.run(record, BUDGET)
        # The best-so-far trace is the running minimum of ``seen``.
        result = _fields(res, ("best_config", "best_value", "evaluations"))
    return _sha256({"result": result, "seen": record.seen})


def method_case(method: str, platform: str, size_mb: float, refine: float | None) -> str:
    """Digest of one :func:`~repro.core.campaign.tune_platform` report."""
    from repro.core import TuningOptions, tune_platform

    report = tune_platform(
        platform,
        method=method,
        size_mb=size_mb,
        iterations=METHOD_ITERATIONS,
        seed=0,
        workload="dna-paper",
        options=TuningOptions(refine=refine),
    )
    compared = tuple(f.name for f in dataclasses.fields(report) if f.compare)
    return _sha256(_fields(report, compared))


def cases() -> dict[str, Callable[[], str]]:
    """Case name -> the function computing its digest."""
    out: dict[str, Callable[[], str]] = {}
    for name in SEARCHERS:
        for objective in OBJECTIVES:
            for seed in SEEDS:
                out[f"search/{name}/{objective}/seed{seed}"] = (
                    lambda n=name, o=objective, s=seed: search_case(n, o, s)
                )
    for method, cell, platform, size_mb, refine in METHOD_CELLS:
        out[f"method/{method}/{cell}"] = (
            lambda m=method, p=platform, mb=size_mb, r=refine: method_case(m, p, mb, r)
        )
    return out


def main() -> int:
    digests = {name: compute() for name, compute in cases().items()}
    GOLDENS.parent.mkdir(parents=True, exist_ok=True)
    GOLDENS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDENS.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
