"""The four optimization methods of Table II: EM, EML, SAM, SAML.

Each method couples a space-exploration strategy (enumeration or
simulated annealing) with an evaluation strategy (measurements or the
trained ML predictor) and returns a uniform :class:`MethodResult`.

For methods that search on *predicted* times (EML, SAML) the suggested
configuration's reported quality is its **measured** execution time —
the paper does the same for fair comparison ("The EML and SAML use the
predicted execution times ... however for fair comparison we use the
measured values", section IV-C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..machines.simulator import PlatformSimulator
from .annealing import SimulatedAnnealing
from .energy import Energy
from .engine import EvaluationEngine
from .enumeration import (
    enumerate_best,
    enumerate_best_separable,
    enumerate_best_separable_ml,
)
from .evaluators import EnergyObjective, MeasurementEvaluator, MLEvaluator
from .params import ParameterSpace, SystemConfiguration, device_only_config, host_only_config

#: Table II, verbatim.
METHOD_PROPERTIES: dict[str, dict[str, str]] = {
    "EM": {
        "space_exploration": "Enumeration",
        "evaluation": "Measurements",
        "effort": "high",
        "accuracy": "optimal",
        "prediction": "no",
    },
    "EML": {
        "space_exploration": "Enumeration",
        "evaluation": "Machine Learning",
        "effort": "high",
        "accuracy": "near-optimal",
        "prediction": "yes",
    },
    "SAM": {
        "space_exploration": "Simulated Annealing",
        "evaluation": "Measurements",
        "effort": "medium",
        "accuracy": "near-optimal",
        "prediction": "no",
    },
    "SAML": {
        "space_exploration": "Simulated Annealing",
        "evaluation": "Machine Learning",
        "effort": "medium",
        "accuracy": "near-optimal",
        "prediction": "yes",
    },
}


@dataclass(frozen=True)
class MethodResult:
    """Uniform outcome of one optimization method.

    Frozen: results are shared (the campaign layer caches EM references
    per cell), so they must stay immutable after construction.
    """

    method: str
    config: SystemConfiguration
    measured: Energy  # measured energy of the suggested configuration
    search_energy: Energy  # energy the search itself saw (may be predicted)
    experiments: int  # timed experiments consumed by the search
    search_evaluations: int  # configurations scored during the search

    @property
    def measured_time(self) -> float:
        """Measured E of the suggested configuration (seconds)."""
        return self.measured.value


def check_size_mb(size_mb: float) -> None:
    """Reject an input size no cell can be tuned for (not finite, or <= 0);
    entry points call this before any work reaches the caches or the store."""
    if not (math.isfinite(size_mb) and size_mb > 0):
        raise ValueError(f"size_mb must be a positive finite number, got {size_mb!r}")


def check_iterations(iterations: int) -> None:
    """Reject a search budget no method can spend (below one iteration);
    entry points call this first, before any work reaches the caches."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations!r}")


def baseline_times(
    sim: PlatformSimulator, space: ParameterSpace, size_mb: float
) -> tuple[float, float | None]:
    """Measured host-only / device-only times with every thread of ``space``
    (the paper's baselines); device is ``None`` without an accelerator.
    Noise is fixed per configuration, so any simulator of the cell agrees."""
    host_cfg = host_only_config(max(space.host_threads))
    host = sim.measure_host(host_cfg.host_threads, host_cfg.host_affinity, size_mb)
    if not sim.platform.has_device:
        return host, None
    device_cfg = device_only_config(max(space.device_threads))
    return host, sim.measure_device(
        device_cfg.device_threads, device_cfg.device_affinity, size_mb
    )


def _measure_config(
    sim: PlatformSimulator, config: SystemConfiguration, size_mb: float
) -> Energy:
    evaluator = MeasurementEvaluator(sim)
    return evaluator.evaluate(config, size_mb)


def run_em(
    space: ParameterSpace,
    sim: PlatformSimulator,
    size_mb: float,
    *,
    shards: int = 1,
    refine: float | None = None,
    processes: int | None = None,
    start_method: str | None = None,
    coarse=None,
) -> MethodResult:
    """Enumeration + Measurements: certain optimum, maximal effort.

    The separable walk computes the per-side measurement grids directly
    (no evaluation engine is consulted, so engine statistics stay at
    zero for EM); it finds the optimum a per-configuration walk over
    :class:`~repro.core.evaluators.MeasurementEvaluator` finds.
    ``shards`` / ``refine`` / ``processes`` / ``start_method`` /
    ``coarse`` are the multi-device scale-out knobs of
    :func:`~repro.core.enumeration.enumerate_best_separable` (no-ops on
    single-device spaces).
    """
    res = enumerate_best_separable(
        space,
        sim,
        size_mb,
        shards=shards,
        refine=refine,
        processes=processes,
        start_method=start_method,
        coarse=coarse,
    )
    return MethodResult(
        method="EM",
        config=res.best_config,
        measured=res.best_energy,
        search_energy=res.best_energy,
        experiments=res.configurations,
        search_evaluations=res.configurations,
    )


def run_eml(
    space: ParameterSpace,
    ml: MLEvaluator,
    sim: PlatformSimulator,
    size_mb: float,
    *,
    engine: EvaluationEngine | None = None,
    shards: int = 1,
    refine: float | None = None,
    processes: int | None = None,
    start_method: str | None = None,
) -> MethodResult:
    """Enumeration + Machine Learning: full space walk on predictions.

    Consumes zero search-time experiments (plus one final measurement of
    the suggested configuration for reporting).  A batched ``engine``
    vectorizes the 19 926-prediction walk.  Multi-device spaces route
    through the separable ML walk (their product spaces are far too
    large for a per-configuration walk; the engine is not consulted)
    and honor the ``shards`` / ``refine`` / ``processes`` /
    ``start_method`` scale-out knobs.
    """
    if space.num_devices > 1:
        res = enumerate_best_separable_ml(
            space,
            ml,
            size_mb,
            shards=shards,
            refine=refine,
            processes=processes,
            start_method=start_method,
        )
    else:
        res = enumerate_best(space, ml, size_mb, engine=engine)
    measured = _measure_config(sim, res.best_config, size_mb)
    return MethodResult(
        method="EML",
        config=res.best_config,
        measured=measured,
        search_energy=res.best_energy,
        experiments=1,
        search_evaluations=res.configurations,
    )


def run_sam(
    space: ParameterSpace,
    sim: PlatformSimulator,
    size_mb: float,
    *,
    iterations: int = 1000,
    seed: int = 0,
    initial_temperature: float = 1.0,
    engine: EvaluationEngine | None = None,
) -> MethodResult:
    """Simulated Annealing + Measurements."""
    evaluator = MeasurementEvaluator(sim)
    sa = SimulatedAnnealing(
        space, seed=seed, initial_temperature=initial_temperature, engine=engine
    )
    run = sa.run(EnergyObjective(evaluator, size_mb), iterations=iterations)
    return MethodResult(
        method="SAM",
        config=run.best_config,
        measured=run.best_energy,  # SAM searched on measurements already
        search_energy=run.best_energy,
        experiments=evaluator.evaluations,
        search_evaluations=run.iterations + 1,  # +1 for the initial solution
    )


def run_saml(
    space: ParameterSpace,
    ml: MLEvaluator,
    sim: PlatformSimulator,
    size_mb: float,
    *,
    iterations: int = 1000,
    seed: int = 0,
    initial_temperature: float = 1.0,
    engine: EvaluationEngine | None = None,
) -> MethodResult:
    """Simulated Annealing + Machine Learning: the paper's headline method.

    Searches entirely on predictions; only the finally suggested
    configuration is measured.
    """
    sa = SimulatedAnnealing(
        space, seed=seed, initial_temperature=initial_temperature, engine=engine
    )
    run = sa.run(EnergyObjective(ml, size_mb), iterations=iterations)
    measured = _measure_config(sim, run.best_config, size_mb)
    return MethodResult(
        method="SAML",
        config=run.best_config,
        measured=measured,
        search_energy=run.best_energy,
        experiments=1,
        search_evaluations=run.iterations + 1,
    )


def run_method(
    method: str,
    space: ParameterSpace,
    sim: PlatformSimulator,
    size_mb: float,
    *,
    ml: MLEvaluator | None = None,
    iterations: int = 1000,
    seed: int = 0,
    engine: EvaluationEngine | None = None,
    shards: int = 1,
    refine: float | None = None,
    processes: int | None = None,
    start_method: str | None = None,
) -> MethodResult:
    """Dispatch by method name ("EM", "EML", "SAM", "SAML").

    ``engine`` selects the evaluation backend for the search phase (see
    :mod:`repro.core.engine`); method results are engine-independent for
    the deterministic evaluators used here.  ``shards`` / ``refine`` /
    ``processes`` / ``start_method`` apply to the enumeration methods
    on multi-device spaces (annealing searches ignore them).
    """
    method = method.upper()
    if method == "EM":
        return run_em(
            space,
            sim,
            size_mb,
            shards=shards,
            refine=refine,
            processes=processes,
            start_method=start_method,
        )
    if method == "EML":
        if ml is None:
            raise ValueError("EML requires a trained MLEvaluator")
        return run_eml(
            space,
            ml,
            sim,
            size_mb,
            engine=engine,
            shards=shards,
            refine=refine,
            processes=processes,
            start_method=start_method,
        )
    if method == "SAM":
        return run_sam(space, sim, size_mb, iterations=iterations, seed=seed, engine=engine)
    if method == "SAML":
        if ml is None:
            raise ValueError("SAML requires a trained MLEvaluator")
        return run_saml(
            space, ml, sim, size_mb, iterations=iterations, seed=seed, engine=engine
        )
    raise ValueError(f"unknown method {method!r}; expected EM/EML/SAM/SAML")
