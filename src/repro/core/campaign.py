"""Per-cell tuning and workload x platform matrices.

The paper tunes one ``(workload, platform)`` cell: :func:`tune_platform`
runs one optimization method (Table II) on one platform and reports the
suggested system configuration, its measured time, how close it comes
to the enumeration optimum (EM), the speedups over the host-only /
device-only baselines, and the experiment budget the search consumed
versus what a full enumeration would cost.  :func:`tune_scenario` does
the same for a registered workload at its own input scale.

A *scenario matrix* (:func:`tune_matrix`) crosses workloads from the
registry (:mod:`repro.dna.workloads`) with platforms from the platform
registry.  A fleet run — one method across many platforms — is the
one-workload matrix ``tune_matrix([workload], platforms)``.  Every cell
gets its own measurement substrate, scenario-fitted configuration space
(:func:`~repro.core.params.workload_space`), and engine, so per-cell
statistics and experiment budgets stay clean.  With ``processes > 1``
whole cells are scored concurrently over a process pool — every cell is
deterministic given ``(workload, platform, method, seed)``, so the
fan-out changes wall-clock time only, never results.  Dispatch goes
through the fault-tolerant :func:`~repro.core.pool.run_tasks` loop:
crashed or timed-out cells are re-dispatched under the options' retry
policy, a wedged pool is rebuilt once, and repeated failure degrades to
serial in-process execution — the matrix completes either way, with
the ledger attached to the result's ``reliability`` field.

ML-backed methods (EML/SAML) retrain the predictors per platform (the
paper's "once per platform" training workflow); platforms without an
accelerator cannot train a device model and are rejected for those
methods — use EM/SAM fleet-wide, or pass an explicit platform list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.reliability import RetryStats

from ..dna.workloads import (
    WorkloadSpec,
    get_workload,
    resolve_workload,
    workload_names,
)
from ..machines.perfmodel import DNA_SCAN, WorkloadProfile
from ..machines.registry import get_platform, platform_names, resolve_platform
from ..machines.simulator import PlatformSimulator
from ..machines.spec import PlatformSpec
from .methods import (
    METHOD_PROPERTIES,
    baseline_times,
    check_iterations,
    check_size_mb,
    run_em,
    run_method,
)
from .options import TuningOptions
from .portfolio import ML_ENTRANTS, PortfolioResult
from .params import SystemConfiguration, cell_space
from .pool import run_tasks

#: Methods that need per-platform trained predictors.
ML_METHODS = ("EML", "SAML")

#: Per-process cache of EM enumeration references, keyed by the full
#: cell identity (platform, workload profile, space grids, size, seed,
#: refinement fidelity).  Callers score the same (platform, workload)
#: cell once per method; the EM reference is method-independent, so
#: re-walking the space for every method is pure waste.  Entries are
#: frozen :class:`~repro.core.methods.MethodResult` instances shared
#: across calls.  Process fan-out keeps the parent authoritative: each
#: worker is pre-seeded with *its cell's* entries only (those sharing
#: the job's platform spec and workload profile, see
#: :func:`_em_cache_by_cell`) and returns whatever it computed fresh,
#: which the parent merges back — so a repeated matrix never re-walks
#: a cell, no matter the start method.
_EM_CACHE: dict[tuple, "MethodResult"] = {}

#: Optional durable tier under :data:`_EM_CACHE`: anything with the
#: :class:`~repro.service.store.ResultStore` ``get_em``/``put_em``
#: surface.  When bound (see :func:`set_result_store`), cache misses
#: read through to it and fresh references — including worker-computed
#: entries merged back by :func:`_merge_em_entries` — are persisted, so
#: pool workers, the campaign server, and separate processes share one
#: on-disk store across restarts.
_RESULT_STORE = None


def clear_em_cache() -> None:
    """Drop all cached EM enumeration references (mainly for tests)."""
    _EM_CACHE.clear()


def set_result_store(store):
    """Bind (or with ``None`` unbind) the durable result store.

    Returns the previously bound store so callers can restore it; the
    in-memory :data:`_EM_CACHE` stays the first-level cache either way.
    """
    global _RESULT_STORE
    previous = _RESULT_STORE
    _RESULT_STORE = store
    return previous


def get_result_store():
    """The currently bound durable result store, or ``None``."""
    return _RESULT_STORE


def _em_reference(
    spec,
    workload,
    space,
    size_mb: float,
    seed: int,
    shards: int = 1,
    refine: float | None = None,
):
    """The cell's EM optimum, computed once per (platform, workload, space).

    The reference runs on its own substrate via the vectorized separable
    fast path, so a cache miss costs a handful of columnar measurement
    grids; a hit costs the workload-profile resolution and a dict
    lookup.  Results are bit-identical to an uncached
    :func:`~repro.core.methods.run_em` call (same seed, fresh
    simulator).  ``refine`` is part of the cache key (it changes the
    enumerated fidelity); ``shards`` is not (sharding is bit-identical
    by construction, it only changes how the walk is executed).

    Misses fall through to the bound durable store (see
    :func:`set_result_store`) before computing, and fresh references
    are persisted to it.  A refined miss whose *coarse* twin (same key,
    ``refine=None``) is cached warm-starts the coarse-to-fine schedule
    from that incumbent instead of re-walking the full simplex — the
    enumeration-layer read-through of
    :func:`~repro.core.enumeration.enumerate_best_separable`.
    """
    key = _em_cache_key(spec, workload, space, size_mb, seed, refine)
    hit = _cache_lookup(key)
    if hit is None:
        coarse = None
        if refine is not None:
            warm = _cache_lookup(_em_cache_key(spec, workload, space, size_mb, seed, None))
            if warm is not None:
                from .enumeration import EnumerationResult

                coarse = EnumerationResult(warm.config, warm.measured, warm.experiments)
        hit = run_em(
            space,
            PlatformSimulator(spec, workload, seed=seed),
            size_mb,
            shards=shards,
            refine=refine,
            coarse=coarse,
        )
        _EM_CACHE[key] = hit
        if _RESULT_STORE is not None:
            _RESULT_STORE.put_em(key, hit)
    return hit


def _em_cache_key(spec, workload, space, size_mb: float, seed: int, refine):
    """The full cell identity every cache tier keys on."""
    return (
        *_em_cell(spec, workload),
        space.signature(),
        float(size_mb),
        seed,
        None if refine is None else float(refine),
    )


def _cache_lookup(key: tuple):
    """Memory first, then the durable store (promoting hits to memory)."""
    hit = _EM_CACHE.get(key)
    if hit is None and _RESULT_STORE is not None:
        hit = _RESULT_STORE.get_em(key)
        if hit is not None:
            _EM_CACHE[key] = hit
    return hit


def _em_cell(spec, workload) -> tuple:
    """The ``(platform spec, workload profile)`` prefix of a cache key."""
    from ..machines.simulator import _resolve_workload

    return (spec, _resolve_workload(workload))


def _em_cache_by_cell() -> dict[tuple, dict[tuple, "MethodResult"]]:
    """The parent cache grouped by :func:`_em_cell`, in one pass.

    Each group is a picklable pre-seed for one fan-out job: it holds
    every reference that job's cell can read — all of its spaces,
    sizes, seeds and fidelities, including the coarse twin a
    ``refine=`` miss warm-starts from — and nothing any other cell
    owns, so a job's pickle and its merge-back stay cell-sized no
    matter how many references the parent holds.
    """
    cells: dict[tuple, dict[tuple, "MethodResult"]] = {}
    for key, value in _EM_CACHE.items():
        cells.setdefault(key[:2], {})[key] = value
    return cells


def _em_cache_snapshot(spec, workload) -> dict[tuple, "MethodResult"]:
    """The parent's references for one cell, used to pre-seed one job.

    The single-job form of :func:`_em_cache_by_cell`: a filter on the
    key prefix, which skips hashing every held key's platform spec
    and workload profile.
    """
    cell = _em_cell(spec, workload)
    return {key: value for key, value in _EM_CACHE.items() if key[:2] == cell}


def _merge_em_entries(fresh: dict[tuple, "MethodResult"]) -> None:
    """Adopt worker-computed EM references (existing entries win).

    With a durable store bound, adopted entries are persisted too —
    the store dedups by key, so re-merging a seed snapshot is free —
    which is how pool workers' walks end up shared across processes
    and server restarts.
    """
    for key, value in fresh.items():
        _EM_CACHE.setdefault(key, value)
        if _RESULT_STORE is not None:
            _RESULT_STORE.put_em(key, value)


@dataclass(frozen=True)
class PlatformTuneReport:
    """One (workload, platform) cell's tuning outcome."""

    platform: str
    description: str
    method: str
    config: SystemConfiguration
    measured_time: float  # seconds, measured, of the suggested config
    em_time: float  # seconds, measured, of the enumeration optimum
    em_config: SystemConfiguration
    host_only_time: float
    device_only_time: float | None  # None on platforms without a device
    experiments: int  # timed experiments the method consumed
    search_evaluations: int
    space_size: int
    #: Engine counters describe how the cell was computed, not its
    #: result: they are reported but left out of equality.
    engine_batches: int = field(compare=False)
    engine_cache_hits: int = field(compare=False)
    #: Static training-grid charge for ML-backed cells (the plan cost of
    #: :mod:`repro.ml.transfer` — independent of runtime cache/store
    #: reuse, so reports stay pure functions of the cell identity).
    #: Zero for measurement-only methods.
    training_experiments: int = 0
    #: Successive-halving race ledger when the cell ran a portfolio
    #: (``options.portfolio``), else ``None``.
    portfolio: "PortfolioResult | None" = None

    @property
    def quality_vs_em(self) -> float:
        """Suggested-config time over the enumeration optimum (1.0 = optimal)."""
        return self.measured_time / self.em_time

    @property
    def total_experiments(self) -> int:
        """Search plus training experiments — the full budget the cell spent."""
        return self.experiments + self.training_experiments

    @property
    def budget_fraction(self) -> float:
        """Method experiments as a fraction of the enumeration budget."""
        return self.experiments / self.space_size

    @property
    def speedup_vs_host_only(self) -> float:
        """Measured speedup over host-only with every host thread."""
        return self.host_only_time / self.measured_time

    @property
    def speedup_vs_device_only(self) -> float | None:
        """Measured speedup over device-only (None without a device)."""
        if self.device_only_time is None:
            return None
        return self.device_only_time / self.measured_time


def tune_platform(
    platform: PlatformSpec | str,
    *,
    method: str = "SAM",
    size_mb: float = 3170.0,
    iterations: int = 1000,
    seed: int = 0,
    workload: WorkloadProfile | WorkloadSpec | str = DNA_SCAN,
    options: TuningOptions | None = None,
) -> PlatformTuneReport:
    """Tune one platform and compare against its enumeration optimum.

    ``workload`` accepts a raw :class:`~repro.machines.perfmodel.WorkloadProfile`
    (historical behavior, platform-fitted space) or a registered
    workload name / :class:`~repro.dna.workloads.WorkloadSpec`, in
    which case the configuration space is scenario-fitted via
    :func:`~repro.core.params.workload_space`.  The EM reference runs
    on its own substrate via the vectorized separable fast path and is
    cached per (platform, workload, space, size, seed, refine) cell —
    scoring the same cell with several methods re-walks the space
    exactly once — so the reported ``experiments`` count only what the
    method itself consumed.

    Execution knobs arrive as one :class:`~repro.core.options.TuningOptions`
    (``options=``, ``None`` for the defaults).  Its ``shards`` /
    ``refine`` are the multi-device enumeration knobs (see
    :func:`~repro.core.enumeration.enumerate_best_separable`); a
    direct call with ``options.processes`` set fans the enumeration
    *shards* out (matrices strip it via
    :meth:`~repro.core.options.TuningOptions.for_cell` so cell fan-out
    never nests pools).
    """
    check_iterations(iterations)
    check_size_mb(size_mb)
    opts = options or TuningOptions()
    spec = resolve_platform(platform)
    method = method.upper()
    if method not in METHOD_PROPERTIES:
        raise ValueError(
            f"unknown method {method!r}; expected one of {', '.join(METHOD_PROPERTIES)}"
        )
    if method in ML_METHODS:
        spec.require_device(
            f"method {method} needs per-platform trained predictors — use EM or SAM"
        )
    workload_spec, workload = resolve_workload(workload)
    space = cell_space(spec, workload_spec)
    engine_obj = opts.engine_instance()

    em = _em_reference(spec, workload, space, size_mb, seed, opts.shards, opts.refine)

    sim = PlatformSimulator(spec, workload, seed=seed)
    ml = None
    training_experiments = 0
    needs_ml = method in ML_METHODS or (
        opts.portfolio is not None
        and spec.has_device
        and any(e in ML_ENTRANTS for e in opts.portfolio.entrants)
    )
    if needs_ml:
        from ..ml.transfer import cell_models

        # Registered workloads rescale the training grid to their input
        # scale (the spec is passed through); ``options.transfer``
        # switches on warm-started training.
        models = cell_models(
            spec,
            workload_spec if workload_spec is not None else workload,
            seed=seed,
            transfer=opts.transfer,
        )
        ml = models.evaluator()
        training_experiments = models.ledger.grid_experiments
    portfolio_result = None
    if opts.portfolio is not None:
        from .portfolio import run_portfolio

        # The race runs every entrant through one shared memoizing
        # evaluator (its own accounting); the cell's engine is not
        # consulted, so engine statistics stay at zero.
        result, portfolio_result = run_portfolio(
            space,
            sim,
            size_mb,
            spec=opts.portfolio,
            iterations=iterations,
            seed=seed,
            ml=ml,
        )
        method = result.method
    else:
        result = run_method(
            method,
            space,
            sim,
            size_mb,
            ml=ml,
            iterations=iterations,
            seed=seed,
            engine=engine_obj,
            shards=opts.shards,
            refine=opts.refine,
            processes=opts.processes,
            start_method=opts.start_method,
        )

    host_only, device_only = baseline_times(
        PlatformSimulator(spec, workload, seed=seed), space, size_mb
    )

    stats = engine_obj.stats if engine_obj is not None else None
    return PlatformTuneReport(
        platform=spec.name,
        description=spec.description,
        method=method,
        config=result.config,
        measured_time=result.measured_time,
        em_time=em.measured_time,
        em_config=em.config,
        host_only_time=host_only,
        device_only_time=device_only,
        experiments=result.experiments,
        search_evaluations=result.search_evaluations,
        space_size=space.size(),
        engine_batches=stats.batches if stats else 0,
        engine_cache_hits=stats.cache_hits if stats else 0,
        training_experiments=training_experiments,
        portfolio=portfolio_result,
    )


def _seed_and_diff_cache(seed_cache: dict[tuple, "MethodResult"]):
    """Pre-seed the worker cache; return a callable yielding fresh entries.

    Fan-out workers start from the parent's references for *their own
    cell* (:func:`_em_cache_snapshot`) so they never re-walk a cell the
    parent already holds, and the returned closure
    diffs the cache afterwards so only *worker-computed* entries travel
    back over the pipe (merged by :func:`_merge_em_entries`).
    """
    _merge_em_entries(seed_cache)
    known = frozenset(_EM_CACHE)
    return lambda: {k: v for k, v in _EM_CACHE.items() if k not in known}


@dataclass(frozen=True)
class ScenarioReport:
    """One ``(workload, platform)`` cell of a scenario matrix."""

    workload: str
    size_mb: float  # the cell's tuned input size (the workload's scale)
    report: PlatformTuneReport

    @property
    def platform(self) -> str:
        """The cell's platform display name."""
        return self.report.platform

    @property
    def config(self) -> SystemConfiguration:
        """The cell's best (suggested) configuration."""
        return self.report.config

    @property
    def optimum_distance(self) -> float:
        """Suggested time over the enumeration optimum (1.0 = optimal)."""
        return self.report.quality_vs_em

    @property
    def speedup_vs_host_only(self) -> float:
        """Measured speedup over the cell's host-only baseline."""
        return self.report.speedup_vs_host_only

    @property
    def portfolio(self) -> "PortfolioResult | None":
        """The cell's successive-halving ledger, when it raced a portfolio."""
        return self.report.portfolio

    @property
    def total_experiments(self) -> int:
        """Search plus training experiments the cell spent."""
        return self.report.total_experiments


@dataclass(frozen=True)
class MatrixResult:
    """All cells of a workload x platform matrix plus table views."""

    method: str
    workloads: tuple[str, ...]
    platforms: tuple[str, ...]
    reports: tuple[ScenarioReport, ...]
    #: Dispatch-reliability ledger for this run (retries, timeouts,
    #: degradations — see :func:`~repro.core.pool.run_tasks`).  Purely
    #: observational: excluded from equality so a retried matrix compares
    #: equal to its fault-free twin, which is the headline invariant.
    reliability: RetryStats | None = field(default=None, compare=False, repr=False)

    def __iter__(self):
        return iter(self.reports)

    def __len__(self) -> int:
        return len(self.reports)

    def cell(self, workload: str, platform: str) -> ScenarioReport:
        """The cell for one (workload, platform) pair (case-insensitive)."""
        w, p = workload.strip().lower(), platform.strip().lower()
        for r in self.reports:
            if r.workload.lower() == w and r.platform.lower() == p:
                return r
        raise KeyError(f"no matrix cell for workload {workload!r} on {platform!r}")

    def row(self, workload: str) -> tuple[ScenarioReport, ...]:
        """All cells of one workload, in platform order."""
        w = workload.strip().lower()
        cells = tuple(r for r in self.reports if r.workload.lower() == w)
        if not cells:
            known = ", ".join(self.workloads)
            raise KeyError(f"no matrix row for workload {workload!r}; have: {known}")
        return cells

    def best_platform_for(self, workload: str) -> ScenarioReport:
        """The platform with the lowest tuned time for one workload."""
        return min(self.row(workload), key=lambda r: r.report.measured_time)

    def best_cell(self) -> ScenarioReport:
        """The cell with the highest speedup over its host-only baseline.

        Measured times are not comparable across workloads (each cell
        tunes its own input size), so the cross-scenario headline is the
        relative win over the per-cell baseline.
        """
        return max(self.reports, key=lambda r: r.speedup_vs_host_only)

    def table_headers(self) -> list[str]:
        """Column headers for :meth:`table_rows`."""
        return [
            "Workload",
            "Platform",
            "Best configuration",
            "Size [MB]",
            "Time [s]",
            "vs EM",
            "vs host",
            "Experiments",
        ]

    def table_rows(self) -> list[tuple[object, ...]]:
        """Per-cell comparison rows (printed by the CLI's ``matrix``)."""
        rows: list[tuple[object, ...]] = []
        for r in self.reports:
            rows.append(
                (
                    r.workload,
                    r.platform,
                    r.config.describe(),
                    round(r.size_mb, 1),
                    round(r.report.measured_time, 3),
                    f"{r.optimum_distance:.3f}x",
                    f"{r.speedup_vs_host_only:.2f}x",
                    r.report.experiments,
                )
            )
        return rows


def tune_scenario(
    workload: WorkloadSpec | str,
    platform: PlatformSpec | str,
    *,
    method: str = "SAM",
    size_mb: float | None = None,
    iterations: int = 1000,
    seed: int = 0,
    options: TuningOptions | None = None,
) -> ScenarioReport:
    """Tune one (workload, platform) cell.

    ``size_mb`` defaults to the workload's own input scale
    (``WorkloadSpec.sequence_mb``) — a short-read archive is tuned at
    300 MB, a wheat genome at 24 GB — so the matrix compares scenarios,
    not one arbitrary size.  Execution knobs arrive as one
    :class:`~repro.core.options.TuningOptions` (see :func:`tune_platform`).
    """
    spec = get_workload(workload)
    size = float(size_mb) if size_mb is not None else spec.sequence_mb
    report = tune_platform(
        platform,
        method=method,
        size_mb=size,
        iterations=iterations,
        seed=seed,
        workload=spec,
        options=options,
    )
    return ScenarioReport(workload=spec.name, size_mb=size, report=report)


def _tune_scenario_worker(
    args: tuple,
) -> tuple[ScenarioReport, dict[tuple, "MethodResult"]]:
    """Picklable fan-out target for matrix cells.

    Jobs carry the *resolved* workload and platform specs (not registry
    names) so runtime-registered entries — ingested ``fasta:*``
    workloads above all — tune identically through worker processes,
    whose fresh registries could not resolve them by name.  The job's
    seed cache holds only the parent's references for this cell
    (:func:`_em_cache_snapshot`).  Returns the report plus any EM-cache
    entries this worker computed fresh, so the parent can merge them
    back into its authoritative cache (workers are throwaway processes;
    without the merge, a repeated matrix would re-run every EM
    reference).
    """
    workload, platform, kwargs, seed_cache = args
    fresh_entries = _seed_and_diff_cache(seed_cache)
    report = tune_scenario(workload, platform, **kwargs)
    return report, fresh_entries()


def tune_matrix(
    workloads: tuple[str, ...] | list[str] | None = None,
    platforms: tuple[str, ...] | list[str] | None = None,
    *,
    method: str = "SAM",
    size_mb: float | None = None,
    iterations: int = 1000,
    seed: int = 0,
    options: TuningOptions | None = None,
) -> MatrixResult:
    """Run one tuning method over a workload x platform scenario matrix.

    ``workloads`` / ``platforms`` default to the full registries (minus
    accelerator-less platforms for ML-backed methods); both axes accept
    registry names or resolved specs, including runtime-registered
    ingested workloads (``fasta:*``).  Every cell gets a fresh
    substrate, a scenario-fitted space, and its own engine instance
    (when ``options.engine`` names one), so per-cell statistics and
    budgets stay clean.

    A fleet run — one method across many platforms — is the
    one-workload matrix ``tune_matrix([workload], platforms)``.

    Execution knobs arrive as one :class:`~repro.core.options.TuningOptions`
    (``options=``, ``None`` for the defaults).  ``options.processes > 1``
    fans whole cells out over a process pool with identical results;
    ``options.start_method`` pins the pool's start method (default:
    safest available, see
    :data:`~repro.core.pool.START_METHOD_PREFERENCE`).  The parent EM
    cache is grouped by cell once and each job carries only its own
    cell's references; every job's fresh references are merged back
    (:func:`_merge_em_entries`), so a repeated matrix never re-walks a
    cell.  Dispatch is fault-tolerant (``options.retry``, see
    :func:`~repro.core.pool.run_tasks`).  ``options.shards`` /
    ``options.refine`` are the multi-device enumeration knobs (see
    :func:`tune_platform`).  ``size_mb`` overrides the per-workload
    input scale for every cell (``--size-mb`` of ``python -m repro
    campaign``, and tests).
    """
    check_iterations(iterations)
    if size_mb is not None:
        check_size_mb(size_mb)
    opts = options or TuningOptions()
    method = method.upper()
    wnames = list(workloads) if workloads is not None else list(workload_names())
    if platforms is None:
        pnames = list(platform_names())
        if method in ML_METHODS:
            pnames = [n for n in pnames if get_platform(n).has_device]
    else:
        pnames = list(platforms)
    if not wnames or not pnames:
        raise ValueError("matrix needs at least one workload and one platform")
    wspecs = [get_workload(w) for w in wnames]
    pspecs = [resolve_platform(p) for p in pnames]
    kwargs = dict(
        method=method,
        size_mb=size_mb,
        iterations=iterations,
        seed=seed,
        options=opts.for_cell(),
    )
    cells = _em_cache_by_cell()
    jobs = [
        (w, p, kwargs, cells.get(_em_cell(p, w), {})) for w in wspecs for p in pspecs
    ]
    outcomes, rstats = run_tasks(
        _tune_scenario_worker,
        jobs,
        processes=opts.processes,
        start_method=opts.start_method,
        policy=opts.retry,
    )
    for _report, fresh in outcomes:
        _merge_em_entries(fresh)
    return MatrixResult(
        method=method,
        workloads=tuple(w.name for w in wspecs),
        platforms=tuple(p.name for p in pspecs),
        reports=tuple(report for report, _fresh in outcomes),
        reliability=rstats,
    )
