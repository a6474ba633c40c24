"""High-level public API: :class:`WorkDistributionTuner`.

One object that owns the platform substrate, trains the performance
predictor once, and then answers "how should this workload be shared
between host and device?" for any input size — the end-to-end system the
paper describes.  See ``examples/quickstart.py`` for typical use.

Trained predictors can be persisted (:meth:`WorkDistributionTuner.save_models`
/ :meth:`load_models`) so the 7200-experiment training cost is paid once
per platform, matching the paper's "once the model is trained" workflow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..machines.perfmodel import DNA_SCAN, WorkloadProfile
from ..machines.registry import get_platform
from ..machines.simulator import PlatformSimulator
from ..machines.spec import EMIL, PlatformSpec
from .energy import Energy
from .methods import MethodResult, run_method
from .options import TuningOptions
from .params import (
    ParameterSpace,
    SystemConfiguration,
    device_only_config,
    host_only_config,
    platform_space,
)
from .training import (
    DEFAULT_TRAINING_SIZES_MB,
    TrainedModels,
    generate_training_data,
    train_models,
)


@dataclass
class _LoadedModels:
    """Predictors restored from disk: prediction-only TrainedModels stand-in."""

    host_model: object
    device_model: object

    def evaluator(self):
        from .evaluators import MLEvaluator

        return MLEvaluator(self.host_model, self.device_model)


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
        Configuration space; by default it is fitted to the platform's
        thread capacities via :func:`~repro.core.params.platform_space`
        (for Emil that is exactly the paper's Table I space) — and,
        when the workload is given by name/spec, to the workload's
        input scale via :func:`~repro.core.params.workload_space`.
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
        if space is not None:
            self.space = space
        elif self.workload_spec is not None:
            from .params import workload_space

            self.space = workload_space(self.workload_spec, self.platform)
        else:
            self.space = platform_space(self.platform)
        self.seed = seed
        self.sim = PlatformSimulator(self.platform, workload, seed=seed)
        self._models: TrainedModels | None = None

    # -- training ----------------------------------------------------------

    def train(self, *, sizes_mb: tuple[float, ...] | None = None) -> TrainedModels:
        """Generate the training grid and fit the per-side predictors.

        Expensive (the paper's grid is 7200 experiments) but done once;
        afterwards :meth:`tune` with SAML/EML costs no experiments.
        The grids follow the tuner's configuration space, so non-Emil
        platforms train on thread counts their hardware actually has;
        ``sizes_mb`` defaults to the paper's four genome sizes, rescaled
        to the workload's input scale when the tuner was built from a
        named workload (see
        :func:`~repro.core.training.training_sizes_for`).
        """
        self.platform.require_device(
            "ML-backed methods (EML/SAML) need a device-side training grid — "
            "use the measurement-based methods (EM/SAM) instead"
        )
        if sizes_mb is None:
            if self.workload_spec is not None:
                from .training import training_sizes_for

                sizes_mb = training_sizes_for(self.workload_spec)
            else:
                sizes_mb = DEFAULT_TRAINING_SIZES_MB
        data = generate_training_data(
            self.sim,
            sizes_mb=sizes_mb,
            host_threads=self.space.host_threads,
            host_affinities=self.space.host_affinities,
            device_threads=self.space.device_threads,
            device_affinities=self.space.device_affinities,
        )
        self._models = train_models(data, seed=self.seed)
        return self._models

    @property
    def models(self) -> TrainedModels:
        """Trained predictors (train() is called lazily if needed)."""
        if self._models is None:
            self.train()
        assert self._models is not None
        return self._models

    # -- persistence -------------------------------------------------------

    def save_models(self, directory: str | Path) -> None:
        """Persist the trained per-side predictors to ``directory``.

        Writes ``host_model.npz``, ``device_model.npz`` and a metadata
        JSON recording the platform/workload identity so a mismatched
        load is caught early.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        from ..ml.io import save_model

        models = self.models
        save_model(directory / "host_model.npz", models.host_model)
        save_model(directory / "device_model.npz", models.device_model)
        meta = {
            "platform": self.platform.name,
            "workload": self.workload.name,
            "seed": self.seed,
            "host_percent_error": models.host_eval.mean_percent_error,
            "device_percent_error": models.device_eval.mean_percent_error,
        }
        (directory / "tuner_meta.json").write_text(json.dumps(meta, indent=2))

    def load_models(self, directory: str | Path) -> None:
        """Load predictors saved by :meth:`save_models`.

        After loading, SAML/EML tuning works without retraining.  The
        held-out evaluation records and raw training data are not
        persisted; only prediction is available from a loaded tuner.
        """
        directory = Path(directory)
        from ..ml.io import load_model

        meta = json.loads((directory / "tuner_meta.json").read_text())
        if meta["platform"] != self.platform.name or meta["workload"] != self.workload.name:
            raise ValueError(
                f"saved models are for platform {meta['platform']!r} / workload "
                f"{meta['workload']!r}, tuner targets {self.platform.name!r} / "
                f"{self.workload.name!r}"
            )
        host_model = load_model(directory / "host_model.npz")
        device_model = load_model(directory / "device_model.npz")
        self._models = _LoadedModels(host_model, device_model)  # type: ignore[assignment]

    # -- tuning ------------------------------------------------------------

    def tune(
        self,
        size_mb: float,
        *,
        method: str = "SAML",
        iterations: int = 1000,
        seed: int | None = None,
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
        if size_mb <= 0:
            raise ValueError(f"size_mb must be positive, got {size_mb}")
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
            seed=self.seed if seed is None else seed,
            engine=opts.engine_instance(),
            shards=opts.shards,
            refine=opts.refine,
            processes=opts.processes,
            start_method=opts.start_method,
        )
        host_cfg = host_only_config(max(self.space.host_threads))
        host_only = Energy(
            self.sim.measure_host(host_cfg.host_threads, host_cfg.host_affinity, size_mb),
            0.0,
        )
        device_only = None
        if self.platform.has_device:
            device_cfg = device_only_config(max(self.space.device_threads))
            device_only = Energy(
                0.0,
                self.sim.measure_device(
                    device_cfg.device_threads, device_cfg.device_affinity, size_mb
                ),
            )
        return TuningOutcome(result=result, host_only=host_only, device_only=device_only)
