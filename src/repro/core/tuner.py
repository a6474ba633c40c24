"""High-level public API: :class:`WorkDistributionTuner`.

One object that owns the platform substrate, trains the performance
predictor once, and then answers "how should this workload be shared
between host and device?" for any input size — the end-to-end system the
paper describes.  See ``examples/quickstart.py`` for typical use.

Training goes through :func:`repro.ml.transfer.cell_models`, the one
cell training pipeline, so a tuner shares fitted models with
:func:`~repro.core.campaign.tune_platform` through the process model
registry and the bound result store: a cell's models are fitted once
per process, and once across processes when a store is bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machines.perfmodel import DNA_SCAN, WorkloadProfile
from ..machines.registry import get_platform
from ..machines.simulator import PlatformSimulator
from ..machines.spec import EMIL, PlatformSpec
from .energy import Energy
from .methods import MethodResult, baseline_times, check_iterations, check_size_mb, run_method
from .options import TuningOptions
from .params import ParameterSpace, SystemConfiguration, cell_space
from .training import TrainedModels, space_training_data, training_sizes_for


@dataclass(frozen=True)
class TuningOutcome:
    """A tuned configuration with its baseline comparisons.

    ``device_only`` is ``None`` on platforms without an accelerator
    (there is no device-only baseline to run).
    """

    result: MethodResult
    host_only: Energy
    device_only: Energy | None

    @property
    def config(self) -> SystemConfiguration:
        """The suggested system configuration."""
        return self.result.config

    @property
    def speedup_vs_host_only(self) -> float:
        """Measured speedup over running everything on the host CPUs."""
        return self.host_only.value / self.result.measured_time

    @property
    def speedup_vs_device_only(self) -> float:
        """Measured speedup over running everything on the accelerator."""
        if self.device_only is None:
            raise ValueError("platform has no accelerator: no device-only baseline")
        return self.device_only.value / self.result.measured_time


class WorkDistributionTuner:
    """Find near-optimal work distribution for a divisible workload.

    Parameters
    ----------
    platform:
        Hardware description — a :class:`~repro.machines.spec.PlatformSpec`
        or a registry name like ``"emil"`` / ``"fathost"`` (see
        :mod:`repro.machines.registry`).  Defaults to the paper's *Emil*
        node.
    workload:
        Scan-rate/table-footprint profile, a registered workload name
        like ``"dna-paper"`` / ``"dense-motif"`` (see
        :mod:`repro.dna.workloads`), or a
        :class:`~repro.dna.workloads.WorkloadSpec`; take a profile from
        :meth:`repro.dna.DNASequenceAnalysis.workload_profile` to tune
        the actual application.
    space:
        Configuration space; by default the cell's
        :func:`~repro.core.params.cell_space`: fitted to the platform's
        thread capacities (for Emil that is exactly the paper's Table I
        space) and, when the workload is given by name/spec, to the
        workload's input scale.
    seed:
        Controls measurement noise and annealing randomness.
    """

    def __init__(
        self,
        platform: PlatformSpec | str = EMIL,
        workload: WorkloadProfile | str = DNA_SCAN,
        space: ParameterSpace | None = None,
        *,
        seed: int = 0,
    ) -> None:
        from ..dna.workloads import resolve_workload

        self.platform = get_platform(platform)
        self.workload_spec, workload = resolve_workload(workload)
        self.workload = workload
        self.space = space if space is not None else cell_space(self.platform, self.workload_spec)
        self.seed = seed
        self.sim = PlatformSimulator(self.platform, workload, seed=seed)
        self._models: TrainedModels | None = None

    # -- training ----------------------------------------------------------

    def train(self) -> TrainedModels:
        """Fit the per-side predictors for this tuner's cell.

        The models come from :func:`~repro.ml.transfer.cell_models` (a
        memory or store hit when the cell was trained before); the grid
        follows the tuner's space and the workload's input scale, and is
        kept on the returned models so their held-out evaluations can be
        read.  Afterwards :meth:`tune` with SAML/EML costs no experiments.
        """
        from ..ml.transfer import cell_models

        workload = self.workload if self.workload_spec is None else self.workload_spec
        pair = cell_models(self.platform, workload, self.space, seed=self.seed)
        data = space_training_data(self.sim, self.space, training_sizes_for(self.workload_spec))
        self._models = TrainedModels(pair.host_model, pair.device_model, data, self.seed)
        return self._models

    @property
    def models(self) -> TrainedModels:
        """Trained predictors (train() is called lazily if needed)."""
        if self._models is None:
            self.train()
        assert self._models is not None
        return self._models

    # -- tuning ------------------------------------------------------------

    def tune(
        self,
        size_mb: float,
        *,
        method: str = "SAML",
        iterations: int = 1000,
        options: TuningOptions | None = None,
    ) -> TuningOutcome:
        """Suggest a configuration for an input of ``size_mb`` megabytes.

        ``method`` is one of EM / EML / SAM / SAML (Table II).  The
        outcome carries measured comparisons against the paper's two
        baselines: host-only with all 48 threads and device-only with
        all 240 threads.

        Execution knobs arrive as one
        :class:`~repro.core.options.TuningOptions`; ``None`` evaluates
        directly, without an engine.  ``options.engine`` selects the
        evaluation backend for the search phase; results are identical
        across backends, only throughput differs.  ``shards`` /
        ``refine`` / ``processes`` / ``start_method`` are the
        multi-device enumeration scale-out knobs (see
        :func:`~repro.core.enumeration.enumerate_best_separable`);
        annealing methods and single-device spaces ignore them.
        """
        check_iterations(iterations)
        check_size_mb(size_mb)
        opts = options or TuningOptions(engine=None)
        ml = None
        if method.upper() in ("EML", "SAML"):
            ml = self.models.evaluator()
        result = run_method(
            method,
            self.space,
            self.sim,
            size_mb,
            ml=ml,
            iterations=iterations,
            seed=self.seed,
            engine=opts.engine_instance(),
            shards=opts.shards,
            refine=opts.refine,
            processes=opts.processes,
            start_method=opts.start_method,
        )
        host_only, device_only = baseline_times(self.sim, self.space, size_mb)
        return TuningOutcome(
            result=result,
            host_only=Energy(host_only, 0.0),
            device_only=None if device_only is None else Energy(0.0, device_only),
        )
