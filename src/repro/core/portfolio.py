"""Budget-aware searcher portfolios raced under successive halving.

The paper fixes one search strategy per run (simulated annealing); the
ablation benchmarks show that which metaheuristic wins depends on the
cell.  A **portfolio** hedges that choice at runtime: every searcher in
the catalogue races on the *same* cell under a shared experiment budget,
and successive halving (Jamieson & Talwalkar, 2016) allocates that
budget — each rung runs the survivors at an ``eta``-times larger budget
and keeps the best ``1/eta`` fraction, so weak searchers are eliminated
after spending only the smallest rung while strong ones inherit the
freed budget.

Three substrate properties make the race cheap and exactly reproducible:

* **deterministic replay** — every searcher is a pure function of
  ``(space, seed, budget)``, so "continuing" a survivor at the next rung
  is just re-running it from scratch at the larger budget;
* **shared memoization** — all entrants score configurations through
  one shared :class:`~repro.core.evaluators.MeasurementEvaluator`, whose
  cache makes replayed evaluations (and any configuration some other
  entrant already measured) free.  ``evaluator.evaluations`` — distinct
  configurations measured — is the race's *experiment* count, the
  paper's cost unit;
* **measured ranking** — entrants are ranked at each rung by the
  *measured* time of their suggested configuration (the ML-guided
  entrant searches on predictions but is judged on measurements, the
  paper's own fairness rule), with deterministic tie-breaks on the
  entrant order.

The final suggested configuration is the best **measured** configuration
seen anywhere in the race (the champion's full-budget run included), so
the portfolio can only improve on its own entrants' observations.  The
full accounting — per-entrant rung spend, eliminations, winner, and
experiment totals — is carried as a :class:`PortfolioResult` ledger on
the campaign report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..machines.simulator import PlatformSimulator
from .annealing import SimulatedAnnealing
from .energy import Energy
from .evaluators import (
    EnergyObjective,
    EvaluatorObjective,
    MeasurementEvaluator,
    MLEvaluator,
)
from .methods import MethodResult, check_iterations
from .params import ParameterSpace, SystemConfiguration

#: Catalogue order: also the deterministic tie-break order at each rung.
PORTFOLIO_ENTRANTS: tuple[str, ...] = (
    "SAM",
    "SAML",
    "RS",
    "HC",
    "TABU",
    "GA",
    "ACO",
)

#: Entrants that search on the trained predictor (dropped on cells
#: without one — accelerator-less platforms have no device grid to
#: train, see :func:`repro.ml.transfer.cell_models`).
ML_ENTRANTS: frozenset[str] = frozenset({"SAML"})


@dataclass(frozen=True)
class PortfolioSpec:
    """The successive-halving schedule: result-relevant, hence frozen.

    ``rung0`` is the first rung's per-entrant evaluation budget; each
    later rung multiplies it by ``eta`` and keeps the best ``1/eta``
    fraction of survivors.  ``entrants`` races a subset of
    :data:`PORTFOLIO_ENTRANTS` in catalogue order.  The spec is part of
    the request identity (:meth:`key` feeds
    :class:`~repro.service.store.CellKey`): a different schedule races
    differently and may crown a different winner.
    """

    rung0: int = 125
    eta: int = 2
    entrants: tuple[str, ...] = PORTFOLIO_ENTRANTS

    def __post_init__(self) -> None:
        if self.rung0 < 1:
            raise ValueError(f"rung0 must be >= 1, got {self.rung0}")
        if self.eta < 2:
            raise ValueError(f"eta must be >= 2, got {self.eta}")
        entrants = tuple(e.upper() for e in self.entrants)
        if not entrants:
            raise ValueError("entrants must not be empty")
        unknown = [e for e in entrants if e not in PORTFOLIO_ENTRANTS]
        if unknown:
            raise ValueError(
                f"unknown portfolio entrants {unknown!r}; "
                f"expected a subset of {PORTFOLIO_ENTRANTS}"
            )
        if len(set(entrants)) != len(entrants):
            raise ValueError(f"duplicate entrants in {entrants!r}")
        # Canonicalize to catalogue order so equal specs compare equal.
        object.__setattr__(
            self,
            "entrants",
            tuple(e for e in PORTFOLIO_ENTRANTS if e in entrants),
        )

    def key(self) -> str:
        """Canonical identity string (embedded in store cell keys)."""
        return f"sh:{self.rung0}x{self.eta}:{'+'.join(self.entrants)}"

    @classmethod
    def parse(cls, text: str) -> "PortfolioSpec":
        """Inverse of :meth:`key` (also the CLI argument format).

        Accepts ``sh:<rung0>x<eta>:<A+B+...>``, with the entrant list
        optional (``sh:125x2`` races the full catalogue) and the whole
        schedule optional (``sh`` or an empty string is the default
        spec).
        """
        text = text.strip()
        if text in ("", "sh"):
            return cls()
        parts = text.split(":")
        if parts[0] != "sh" or len(parts) > 3:
            raise ValueError(
                f"unparseable portfolio spec {text!r}; "
                "expected 'sh:<rung0>x<eta>[:<A+B+...>]'"
            )
        rung0, _, eta = parts[1].partition("x")
        entrants = (
            tuple(parts[2].split("+")) if len(parts) == 3 else PORTFOLIO_ENTRANTS
        )
        return cls(rung0=int(rung0), eta=int(eta or 2), entrants=entrants)


#: The default schedule: 125 x2 over the full catalogue reaches the
#: paper's 1000-iteration budget in four rungs (125/250/500/1000).
DEFAULT_PORTFOLIO = PortfolioSpec()


@dataclass(frozen=True)
class RungEntry:
    """One entrant's outcome at one rung of the race."""

    method: str
    rung: int
    budget: int  # per-entrant evaluation budget at this rung
    value: float  # measured time of the entrant's suggested config
    eliminated: bool  # True when this rung ended the entrant's race


@dataclass(frozen=True)
class PortfolioResult:
    """The race ledger carried on campaign reports.

    ``experiments`` is the number of *distinct* configurations the race
    measured (the shared evaluator's count — the paper's cost unit);
    ``search_evaluations`` counts every objective score including
    replays, so the gap between the two is exactly what memoized replay
    saved.
    """

    spec: PortfolioSpec
    winner: str
    entries: tuple[RungEntry, ...]
    experiments: int
    search_evaluations: int

    @property
    def eliminations(self) -> tuple[tuple[str, int], ...]:
        """``(method, rung)`` pairs, in elimination order."""
        return tuple(
            (e.method, e.rung)
            for e in sorted(
                (e for e in self.entries if e.eliminated),
                key=lambda e: (e.rung, e.method),
            )
        )

    @property
    def spend(self) -> dict[str, int]:
        """Per-entrant nominal evaluation spend, summed over rungs."""
        out: dict[str, int] = {}
        for e in self.entries:
            out[e.method] = out.get(e.method, 0) + e.budget
        return out

    @property
    def rungs(self) -> int:
        """How many rungs the race ran."""
        return 1 + max(e.rung for e in self.entries)

    def describe(self) -> str:
        """One human line, e.g. ``SAML won in 4 rungs (...)``."""
        outs = ", ".join(f"{m} out at rung {r}" for m, r in self.eliminations)
        return (
            f"{self.winner} won in {self.rungs} rungs, "
            f"{self.experiments} experiments"
            + (f" ({outs})" if outs else "")
        )


def _run_entrant(
    name: str,
    space: ParameterSpace,
    size_mb: float,
    seed: int,
    measured: MeasurementEvaluator,
    ml: MLEvaluator | None,
    budget: int,
) -> tuple[SystemConfiguration, int]:
    """One entrant's from-scratch run at ``budget`` evaluations.

    Returns the suggested configuration and the objective scores spent.
    All measurement-based entrants share ``measured``, so a replay at a
    larger budget re-scores its old prefix out of the cache for free.
    """
    if name in ("SAM", "SAML"):
        # The annealer scores its initial solution too: budget-1
        # iterations keeps the total at exactly ``budget`` scores.
        objective = (
            EnergyObjective(measured, size_mb)
            if name == "SAM"
            else EnergyObjective(ml, size_mb)
        )
        sa = SimulatedAnnealing(space, seed=seed)
        run = sa.run(objective, iterations=max(1, budget - 1))
        return run.best_config, run.iterations + 1
    from ..search import (
        AntColony,
        GeneticAlgorithm,
        HillClimbing,
        RandomSearch,
        TabuSearch,
    )

    searcher_types = {
        "RS": RandomSearch,
        "HC": HillClimbing,
        "TABU": TabuSearch,
        "GA": GeneticAlgorithm,
        "ACO": AntColony,
    }
    searcher = searcher_types[name](space, seed=seed)
    res = searcher.run(EvaluatorObjective(measured, size_mb), budget)
    return res.best_config, res.evaluations


def run_portfolio(
    space: ParameterSpace,
    sim: PlatformSimulator,
    size_mb: float,
    *,
    spec: PortfolioSpec = DEFAULT_PORTFOLIO,
    iterations: int = 1000,
    seed: int = 0,
    ml: MLEvaluator | None = None,
) -> tuple[MethodResult, PortfolioResult]:
    """Race the portfolio on one cell under successive halving.

    ``iterations`` is the full per-entrant budget (the classic single
    method's budget): rung budgets grow ``rung0 * eta**r`` capped at
    ``iterations``, and the champion is topped up to the full budget, so
    the winner's final run matches what it would have done standalone.
    ML-guided entrants are dropped when ``ml`` is ``None``.

    Returns the uniform :class:`~repro.core.methods.MethodResult` (method
    ``"PORTFOLIO[<winner>]"``, configuration = best measured anywhere in
    the race) plus the :class:`PortfolioResult` ledger.
    """
    check_iterations(iterations)
    alive = [e for e in spec.entrants if ml is not None or e not in ML_ENTRANTS]
    if not alive:
        raise ValueError(
            f"no runnable entrants: {spec.entrants!r} all need a trained "
            "predictor and none is available on this cell"
        )
    order = {name: i for i, name in enumerate(spec.entrants)}
    measured = MeasurementEvaluator(sim)
    entries: list[RungEntry] = []
    total_evaluations = 0
    # (value, entrant order, rung, config): global best *measured* config.
    best: tuple[float, int, int, SystemConfiguration] | None = None

    def race(names: list[str], rung: int, budget: int) -> list[tuple[float, str]]:
        nonlocal total_evaluations, best
        ranked = []
        for name in names:
            config, spent = _run_entrant(
                name, space, size_mb, seed, measured, ml, budget
            )
            total_evaluations += spent
            value = measured.evaluate(config, size_mb).value
            ranked.append((value, order[name], name, config))
            candidate = (value, order[name], rung, config)
            if best is None or candidate[:2] < best[:2]:
                best = candidate
        ranked.sort(key=lambda r: (r[0], r[1]))
        return ranked

    rung = 0
    while True:
        # A lone survivor skips the remaining rungs and runs its
        # champion top-up at the full budget straight away — its final
        # run then matches what it would have done standalone.
        budget = (
            iterations
            if len(alive) == 1
            else min(iterations, spec.rung0 * spec.eta**rung)
        )
        ranked = race(alive, rung, budget)
        final_rung = budget >= iterations
        survivors = (
            len(alive)
            if final_rung
            else max(1, math.ceil(len(alive) / spec.eta))
        )
        for pos, (value, _ord, name, _config) in enumerate(ranked):
            entries.append(
                RungEntry(
                    method=name,
                    rung=rung,
                    budget=budget,
                    value=value,
                    eliminated=pos >= survivors,
                )
            )
        alive = [name for _v, _o, name, _c in ranked[:survivors]]
        if final_rung:
            break
        rung += 1

    winner = alive[0]
    assert best is not None
    value, _order, _rung, config = best
    energy: Energy = measured.evaluate(config, size_mb)
    ledger = PortfolioResult(
        spec=spec,
        winner=winner,
        entries=tuple(entries),
        experiments=measured.evaluations,
        search_evaluations=total_evaluations,
    )
    result = MethodResult(
        method=f"PORTFOLIO[{winner}]",
        config=config,
        measured=energy,
        search_energy=energy,
        experiments=measured.evaluations,
        search_evaluations=total_evaluations,
    )
    return result, ledger
