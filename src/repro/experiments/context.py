"""Shared experiment context: one simulator + one trained model set.

Every figure/table module needs the same expensive preliminaries (the
7200-experiment training grid and the fitted predictors).  An
:class:`ExperimentContext` takes the models from
:func:`~repro.ml.transfer.cell_models` once and is passed around by the
benchmarks, so regenerating all artifacts costs one training run — and
a cell the tuning paths already trained in this process costs none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..core.evaluators import MLEvaluator
from ..core.params import ParameterSpace, cell_space
from ..core.training import TrainedModels, space_training_data, training_sizes_for
from ..dna.sequence import GENOME_ORDER, GENOMES
from ..dna.workloads import DEFAULT_WORKLOAD_KEY, WorkloadSpec, get_workload, resolve_workload
from ..machines.perfmodel import DNA_SCAN, WorkloadProfile
from ..machines.simulator import PlatformSimulator
from ..machines.spec import EMIL, PlatformSpec
from ..ml.transfer import cell_models


@dataclass
class ExperimentContext:
    """Bundle of the shared experiment state."""

    sim: PlatformSimulator
    models: TrainedModels
    space: ParameterSpace
    seed: int

    @property
    def genome_sizes_mb(self) -> dict[str, float]:
        """Evaluation genome sizes, paper order (human, mouse, cat, dog)."""
        return {name: GENOMES[name].size_mb for name in GENOME_ORDER}

    def ml(self) -> MLEvaluator:
        """A fresh ML evaluator over the trained models."""
        return self.models.evaluator()


def build_context(
    *,
    platform: PlatformSpec = EMIL,
    workload: WorkloadProfile | WorkloadSpec | str = DNA_SCAN,
    seed: int = 0,
) -> ExperimentContext:
    """Train the cell's models (the expensive setup).

    The space is the cell's fitted configuration space (the paper's
    Table I space for Emil), and a registered workload name or
    :class:`~repro.dna.workloads.WorkloadSpec` rescales the training
    sizes to its input scale.  The models come from
    :func:`~repro.ml.transfer.cell_models` (a memory or store hit when
    the cell was trained before); the measured grid is kept on them so
    their held-out evaluations can be read.
    """
    platform.require_device(
        "experiment contexts need both training grids — use the campaign/tune paths"
    )
    workload_spec, profile = resolve_workload(workload)
    space = cell_space(platform, workload_spec)
    sim = PlatformSimulator(platform, profile, seed=seed)
    pair = cell_models(platform, workload, seed=seed)
    data = space_training_data(sim, space, training_sizes_for(workload_spec))
    models = TrainedModels(pair.host_model, pair.device_model, data, seed)
    return ExperimentContext(sim=sim, models=models, space=space, seed=seed)


@lru_cache(maxsize=2)
def default_context(seed: int = 0) -> ExperimentContext:
    """Memoized default context shared by tests and benchmarks."""
    return build_context(seed=seed)


@lru_cache(maxsize=8)
def platform_context(
    platform: str = "emil",
    seed: int = 0,
    workload: str = DEFAULT_WORKLOAD_KEY,
) -> ExperimentContext:
    """Memoized context for a registered (platform, workload) scenario.

    For Emil on the paper's workload this is exactly
    :func:`default_context` — same cache, same models — so
    platform-aware callers keep the historical results bit-for-bit
    (``dna-paper`` derives the identical performance profile).
    """
    from ..machines.registry import get_platform

    spec = get_platform(platform)
    workload_spec = get_workload(workload)
    if spec is EMIL and workload_spec.name == DEFAULT_WORKLOAD_KEY:
        return default_context(seed)
    return build_context(platform=spec, workload=workload_spec, seed=seed)
