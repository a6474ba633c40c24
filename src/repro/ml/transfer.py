"""Cross-cell transfer learning for the per-cell performance predictors.

A workload x platform matrix treats every cell as an independent tuning
problem: each ML-backed cell measures its own ~7200-experiment training
grid and fits its own boosted ensemble from scratch.  But the registry
axes are *correlated* — ``fathost`` is Emil with fatter host sockets,
``long-genome`` is the paper's workload at a different input scale, an
ingested ``fasta:<name>`` twin differs from its ``:shuffled`` background
only in match statistics — so most of what one cell's predictor learned
transfers to its neighbors.  This module makes that explicit:

* a **cell-neighborhood metric** (:func:`cell_distance`) over
  ``(workload, platform)`` cells: finite only for single-axis moves
  (same platform / different workload, or same workload / different
  platform), with derived FASTA twins discounted so a workload and its
  shuffled background are mutual nearest neighbors;
* a **static donor rule** (:func:`transfer_donor`): each cell's warm-start
  donor is the nearest neighbor that precedes it in the canonical
  registry order, so the donor graph is acyclic and donor choice is a
  pure function of the cell — results cannot depend on matrix traversal
  order or process fan-out;
* **warm-started training** (:func:`cell_models`): a warm cell
  re-measures a *reduced* grid (every other training size — the
  platform/workload digest differs, so neighbor measurements cannot be
  reused verbatim, but half the sizes suffice to adapt) and extends the
  donor's ensemble by staged boosting continuation
  (:meth:`~repro.ml.boosting.BoostedDecisionTreeRegressor.continue_fit`)
  instead of refitting from the mean;
* **durable reuse**: measured grids and fitted models persist as
  ``training`` / ``models`` records in the bound
  :class:`~repro.service.store.ResultStore` (content-addressed — the
  key digests the platform calibration, workload profile, grid
  signature, seed, and, for warm models, the donor's digest), so pool
  workers, campaign servers, and restarts share one trained fleet.

Budget accounting is *static*: a cell's ledger charges the experiments
its training plan prescribes (full grid when cold, reduced grid when
warm) whether or not a store hit made the measurement free at runtime —
so reports stay pure functions of the cell identity.  Runtime reuse is
visible in :func:`transfer_stats` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import codec
from ..dna.workloads import (
    DENSE_MOTIF,
    DNA_PAPER,
    LONG_GENOME,
    PROTEIN_ALPHABET,
    SHORT_READ,
    TINY_ALPHABET,
    WorkloadSpec,
    is_derived_key,
)
from ..machines.registry import (
    DUALPHI,
    FATHOST,
    MIXEDPHI,
    QUADPHI,
    SLOWLINK,
)
from ..core.training import evaluate_models
from ..machines.simulator import PlatformSimulator
from ..machines.spec import EMIL, PlatformSpec
from .validation import half_split

#: Canonical donor orders: the built-in registries, in registration
#: order (platforms minus the accelerator-less ``manycore``, which has
#: no device grid to train).  Static module data, not the live
#: registries: donor choice must be identical in every process,
#: including pool workers whose registries lack runtime additions.
BUILTIN_WORKLOADS: tuple[WorkloadSpec, ...] = (
    DNA_PAPER,
    SHORT_READ,
    LONG_GENOME,
    DENSE_MOTIF,
    TINY_ALPHABET,
    PROTEIN_ALPHABET,
)
BUILTIN_DEVICE_PLATFORMS: tuple[PlatformSpec, ...] = (
    EMIL,
    FATHOST,
    DUALPHI,
    SLOWLINK,
    QUADPHI,
    MIXEDPHI,
)

#: Boosting stages a warm continuation adds on the reduced grid (a cold
#: fit runs the full 300 stages of
#: :func:`~repro.core.training.default_model_factory`).
WARM_STAGES = 140

#: Warm grids re-measure every ``stride``-th training size (4 -> 2 sizes,
#: halving the cell's experiment charge).
WARM_SIZE_STRIDE = 2

#: Distance discount for derived FASTA twins (``fasta:x`` vs
#: ``fasta:x:shuffled``): same data, different match statistics — the
#: closest neighborhood relation the registry expresses.
TWIN_DISCOUNT = 0.25

_EPS = 1e-9


def _log_ratio(a: float, b: float) -> float:
    return abs(math.log((a + _EPS) / (b + _EPS)))


def workload_distance(a: WorkloadSpec, b: WorkloadSpec) -> float:
    """Divergence between two workloads on the same platform.

    Sums absolute log-ratios of the derived profile quantities the
    performance model actually consumes (scan rate, automaton footprint,
    result traffic, roofline scale) plus the input-scale ratio — so
    ``long-genome`` (the paper's motif set at 24 GB) sits close to
    ``dna-paper`` while ``protein-alphabet`` is far from everything.
    """
    pa, pb = a.profile(), b.profile()
    return (
        _log_ratio(pa.host_rate_mbs, pb.host_rate_mbs)
        + _log_ratio(pa.table_kb, pb.table_kb)
        + _log_ratio(pa.result_mb, pb.result_mb)
        + abs(pa.transfer_overlap - pb.transfer_overlap)
        + _log_ratio(pa.scan_efficiency_scale, pb.scan_efficiency_scale)
        + _log_ratio(a.sequence_mb, b.sequence_mb)
    )


def platform_distance(a: PlatformSpec, b: PlatformSpec) -> float:
    """Divergence between two platforms running the same workload.

    Absolute log-ratios over the structural and calibration quantities
    that move the optimum: core/thread counts on both sides, device
    count, interconnect bandwidth and launch latency, and the per-side
    rate calibrations.
    """
    return (
        _log_ratio(a.host_cores, b.host_cores)
        + _log_ratio(a.host_hardware_threads, b.host_hardware_threads)
        + _log_ratio(a.max_device_threads + 1, b.max_device_threads + 1)
        + _log_ratio(a.num_devices + 1, b.num_devices + 1)
        + _log_ratio(
            a.interconnect.effective_bandwidth_gbs,
            b.interconnect.effective_bandwidth_gbs,
        )
        + _log_ratio(a.interconnect.latency_s, b.interconnect.latency_s)
        + _log_ratio(a.host_perf.rate_scale, b.host_perf.rate_scale)
        + _log_ratio(a.device_perf.rate_scale, b.device_perf.rate_scale)
    )


def _twin_keys(name: str) -> tuple[str, ...]:
    """The ``namespace:name`` stem identifying a derived workload family."""
    return tuple(name.split(":")[:2])


def cell_distance(
    cell_a: tuple[WorkloadSpec, PlatformSpec],
    cell_b: tuple[WorkloadSpec, PlatformSpec],
) -> float:
    """Neighborhood metric over ``(workload, platform)`` cells.

    Finite only for single-axis moves: two cells on the same platform
    are :func:`workload_distance` apart (derived FASTA twins — same
    ``namespace:name`` stem — discounted by :data:`TWIN_DISCOUNT`, so a
    workload and its shuffled background are mutual nearest neighbors);
    two cells running the same workload are :func:`platform_distance`
    apart.  Cells differing on both axes are infinitely far — transfer
    never crosses both axes in one hop.
    """
    wa, pa = cell_a
    wb, pb = cell_b
    if wa.name == wb.name and pa.name == pb.name:
        return 0.0
    if pa == pb:
        d = workload_distance(wa, wb)
        if (
            is_derived_key(wa.name)
            and is_derived_key(wb.name)
            and _twin_keys(wa.name) == _twin_keys(wb.name)
        ):
            d *= TWIN_DISCOUNT
        return d
    if wa == wb:
        return platform_distance(pa, pb)
    return float("inf")


def _builtin_index(name: str, specs: tuple) -> int:
    for i, spec in enumerate(specs):
        if spec.name.lower() == name.lower():
            return i
    return len(specs)


def _cell_rank(wspec: WorkloadSpec, pspec: PlatformSpec) -> tuple[int, int]:
    return (
        _builtin_index(wspec.name, BUILTIN_WORKLOADS),
        _builtin_index(pspec.name, BUILTIN_DEVICE_PLATFORMS),
    )


def transfer_donor(
    wspec: WorkloadSpec, pspec: PlatformSpec
) -> tuple[WorkloadSpec, PlatformSpec] | None:
    """The cell's warm-start donor, or ``None`` for a cold root.

    The donor is the nearest single-axis neighbor (by
    :func:`cell_distance`) among built-in cells that precede this cell
    in the canonical ``(workload index, platform index)`` order — a pure
    function of the cell, so every process picks the same donor, and
    the precedence rule makes the donor graph a DAG rooted at
    ``(dna-paper, emil)``.  Derived workloads (``fasta:*``) take the
    nearest *built-in* workload on their own platform: their runtime
    twins are not resolvable inside fresh worker registries, so the
    twin relation lives in the metric (and the store), not in the donor
    rule.  Ties break deterministically on (distance, workload name,
    platform name).
    """
    rank = _cell_rank(wspec, pspec)
    candidates: list[tuple[float, str, str, WorkloadSpec, PlatformSpec]] = []
    for w in BUILTIN_WORKLOADS:
        if w.name == wspec.name:
            continue
        if _cell_rank(w, pspec) < rank:
            d = cell_distance((wspec, pspec), (w, pspec))
            candidates.append((d, w.name, pspec.name, w, pspec))
    if _builtin_index(wspec.name, BUILTIN_WORKLOADS) < len(BUILTIN_WORKLOADS):
        for p in BUILTIN_DEVICE_PLATFORMS:
            if p.name == pspec.name:
                continue
            if _cell_rank(wspec, p) < rank:
                d = cell_distance((wspec, pspec), (wspec, p))
                candidates.append((d, wspec.name, p.name, wspec, p))
    if not candidates:
        return None
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    best = candidates[0]
    return best[3], best[4]


# --- training plans and ledgers ---------------------------------------------


@dataclass(frozen=True)
class TrainingLedger:
    """Static budget accounting for one cell's trained predictors.

    ``grid_experiments`` is the *plan* charge — what the cell's training
    grid costs to measure — independent of whether a store or memory hit
    made the measurement free at runtime, so results stay pure functions
    of the cell.  ``lineage`` names the donor chain root-to-self.
    """

    mode: str  # "cold" | "warm"
    donor: tuple[str, str] | None  # (workload name, platform name)
    grid_experiments: int
    stages: int
    lineage: tuple[str, ...]

    def describe(self) -> str:
        src = "from scratch" if self.donor is None else f"from {self.donor[0]}@{self.donor[1]}"
        return (
            f"{self.mode} training {src}: {self.grid_experiments} experiments, "
            f"{self.stages} stages"
        )


@dataclass
class CellModels:
    """One cell's trained per-side predictors plus their ledger."""

    host_model: object
    device_model: object
    ledger: TrainingLedger
    digest: str

    def evaluator(self):
        from ..core.evaluators import MLEvaluator

        return MLEvaluator(self.host_model, self.device_model)


@dataclass
class TransferStats:
    """Process-wide runtime reuse counters (observational only)."""

    cold_fits: int = 0
    warm_fits: int = 0
    models_memory_hits: int = 0
    models_store_hits: int = 0
    grids_measured: int = 0
    grid_store_hits: int = 0

    def as_dict(self) -> dict:
        return codec.encode(self)


_STATS = TransferStats()

#: Per-process model registry keyed by content digest — the first cache
#: tier above the durable store, like the campaign's EM cache.
_MODEL_CACHE: dict[str, CellModels] = {}


def transfer_stats() -> TransferStats:
    """The process-wide transfer reuse counters."""
    return _STATS


def clear_transfer_cache() -> None:
    """Drop cached models and zero the counters (mainly for tests)."""
    _MODEL_CACHE.clear()
    global _STATS
    _STATS = TransferStats()


def _grid_signature(space, sizes: tuple[float, ...], fractions: tuple[float, ...]) -> tuple:
    return (
        tuple(float(s) for s in sizes),
        tuple(float(f) for f in fractions),
        tuple(int(t) for t in space.host_threads),
        tuple(space.host_affinities),
        tuple(int(t) for t in space.device_threads),
        tuple(space.device_affinities),
    )


def training_key_digest(pspec, profile, grid_sig: tuple, seed: int) -> str:
    """Content digest of one measured training grid.

    Hashes the full platform calibration, the workload profile the
    simulator consumes, the grid signature (sizes, fractions, per-side
    thread/affinity lists), and the noise seed — any change to a
    measured quantity yields a fresh digest (structural invalidation,
    like :func:`~repro.service.store.em_key_digest`).
    """
    return codec.digest(("training", pspec, profile, grid_sig, seed))


def models_key_digest(
    training_digest: str, plan: tuple, factory_params: tuple
) -> str:
    """Content digest of one fitted model pair.

    ``plan`` is ``("cold", stages)`` or ``("warm", donor_digest,
    stages)`` — warm digests chain through the donor's digest, so the
    whole training lineage is content-addressed.
    """
    return codec.digest(("models", training_digest, plan, factory_params))


def _factory_params() -> tuple:
    from ..core.training import default_model_factory

    m = default_model_factory()
    return (
        m.n_estimators,
        m.learning_rate,
        m.max_depth,
        m.min_samples_leaf,
        m.subsample,
        m.seed,
    )


def _grid_size(space, sizes, fractions) -> int:
    per_size = len(fractions) * (
        len(space.host_threads) * len(space.host_affinities)
        + len(space.device_threads) * len(space.device_affinities)
    )
    return len(sizes) * per_size


def _training_data(pspec, profile, space, sizes, fractions, seed, digest):
    """The cell's measured grid: store tier first, then the substrate."""
    from ..core.campaign import get_result_store
    from ..core.training import space_training_data

    store = get_result_store()
    if store is not None:
        hit = store.get_training(digest)
        if hit is not None:
            _STATS.grid_store_hits += 1
            return hit
    data = space_training_data(
        PlatformSimulator(pspec, profile, seed=seed), space, sizes, fractions
    )
    _STATS.grids_measured += 1
    if store is not None:
        store.put_training(
            digest,
            data,
            meta={
                "platform": pspec.name,
                "workload": profile.name,
                "sizes_mb": list(sizes),
                "seed": seed,
                "experiments": data.n_experiments,
            },
        )
    return data


def _fit_cold(data, seed: int):
    from ..core.training import train_models

    models = train_models(data, seed=seed)
    _STATS.cold_fits += 1
    return models.host_model, models.device_model


def _fit_warm(donor: CellModels, data, stages: int, seed: int):
    """Per-side staged continuation of the donor's ensembles.

    Mirrors :func:`~repro.core.training.train_models`' protocol — the
    continuation fits on the half-split training rows only, keeping the
    held-out half clean for evaluation parity with cold fits.
    """
    out = {}
    for side, ds, base in (
        ("host", data.host, donor.host_model),
        ("device", data.device, donor.device_model),
    ):
        train_idx, _test_idx = half_split(len(ds), seed=seed)
        out[side] = base.continue_fit(ds.X[train_idx], ds.y[train_idx], stages)
    _STATS.warm_fits += 1
    return out["host"], out["device"]


def cell_models(
    platform,
    workload,
    space=None,
    *,
    seed: int = 0,
    transfer: bool = False,
) -> CellModels:
    """Trained per-side predictors for one cell, warm-started if asked.

    With ``transfer=False`` this is the cold training pipeline — the
    only code that trains a cell: :func:`~repro.core.tuner.WorkDistributionTuner.train`,
    the experiment contexts and :func:`~repro.core.campaign.tune_platform`
    all come here.  Measured grids and fitted models read through /
    persist to the bound :class:`~repro.service.store.ResultStore` and a
    per-process registry.

    With ``transfer=True`` the cell warm-starts from its
    :func:`transfer_donor`: the donor chain is materialized recursively
    (cold at the root), the cell re-measures a reduced grid (every
    :data:`WARM_SIZE_STRIDE`-th training size), and the donor's
    ensembles are extended by :data:`WARM_STAGES` continuation stages.  The
    donor rule is static, so the result is a pure function of
    ``(platform, workload, seed, transfer)`` — independent of process
    fan-out, traversal order, or what happens to be cached.
    """
    from ..core.campaign import get_result_store
    from ..core.params import cell_space
    from ..core.training import TRAINING_FRACTIONS, training_sizes_for
    from ..dna.workloads import resolve_workload
    from ..machines.registry import resolve_platform

    pspec = resolve_platform(platform)
    pspec.require_device(
        "ML-backed training needs a device-side grid — "
        "use the measurement-based methods (EM/SAM) instead"
    )
    wspec, profile = resolve_workload(workload)
    if space is None:
        space = cell_space(pspec, wspec)

    full_sizes = training_sizes_for(wspec)
    donor_cell = (
        transfer_donor(wspec, pspec) if (transfer and wspec is not None) else None
    )
    if donor_cell is None:
        sizes = full_sizes
        mode = "cold"
    else:
        sizes = full_sizes[::WARM_SIZE_STRIDE]
        mode = "warm"

    grid_sig = _grid_signature(space, sizes, TRAINING_FRACTIONS)
    training_digest = training_key_digest(pspec, profile, grid_sig, seed)

    if donor_cell is None:
        donor_models = None
        stages = _factory_params()[0]
        plan = ("cold", stages)
        lineage_prefix: tuple[str, ...] = ()
        donor_names = None
    else:
        dw, dp = donor_cell
        donor_models = cell_models(dp, dw, seed=seed, transfer=True)
        stages = WARM_STAGES
        plan = ("warm", donor_models.digest, stages)
        lineage_prefix = donor_models.ledger.lineage
        donor_names = (dw.name, dp.name)

    digest = models_key_digest(training_digest, plan, _factory_params())
    ledger = TrainingLedger(
        mode=mode,
        donor=donor_names,
        grid_experiments=_grid_size(space, sizes, TRAINING_FRACTIONS),
        stages=stages,
        lineage=lineage_prefix + (f"{profile.name}@{pspec.name}",),
    )

    cached = _MODEL_CACHE.get(digest)
    if cached is not None:
        _STATS.models_memory_hits += 1
        return cached
    store = get_result_store()
    if store is not None:
        pair = store.get_models(digest)
        if pair is not None:
            _STATS.models_store_hits += 1
            models = CellModels(pair[0], pair[1], ledger, digest)
            _MODEL_CACHE[digest] = models
            return models

    data = _training_data(
        pspec, profile, space, sizes, TRAINING_FRACTIONS, seed, training_digest
    )
    if donor_models is None:
        host_model, device_model = _fit_cold(data, seed)
    else:
        host_model, device_model = _fit_warm(donor_models, data, stages, seed)
    models = CellModels(host_model, device_model, ledger, digest)
    _MODEL_CACHE[digest] = models
    if store is not None:
        store.put_models(
            digest,
            host_model,
            device_model,
            meta={
                "platform": pspec.name,
                "workload": profile.name,
                "mode": mode,
                "donor": None if donor_names is None else list(donor_names),
                "stages": stages,
                "seed": seed,
            },
        )
    return models


# Convenience alias used in np-free type hints elsewhere.
__all__ = [
    "BUILTIN_WORKLOADS",
    "BUILTIN_DEVICE_PLATFORMS",
    "WARM_STAGES",
    "WARM_SIZE_STRIDE",
    "TWIN_DISCOUNT",
    "workload_distance",
    "platform_distance",
    "cell_distance",
    "transfer_donor",
    "TrainingLedger",
    "CellModels",
    "TransferStats",
    "transfer_stats",
    "clear_transfer_cache",
    "training_key_digest",
    "models_key_digest",
    "evaluate_models",
    "cell_models",
]
