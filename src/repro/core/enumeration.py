"""Exhaustive design-space enumeration (brute force).

"To determine the optimal system configuration in a large parameter
space one could try to naively enumerate over all possible parameter
values" (section III).  For the paper's space that is 19 926 timed
experiments — the EM column of Table II: optimal but high effort.

Because ``E = max(T_host, T_device)`` is separable, the full product
space never needs one measurement per configuration: each side's time
depends only on its own (threads, affinity, megabytes), so measuring
the ``host combos x fractions`` and ``device combos x fractions`` grids
(738 + 1107 runs for the default space) determines every configuration's
energy.  :func:`enumerate_best` exposes both protocols: the faithful
per-configuration walk and the separable fast path (identical results —
the simulator's noise is per-(side, threads, affinity, mb), which is
exactly what a real re-run-free measurement campaign would produce).

Sharding and coarse-to-fine refinement
--------------------------------------

Multi-device share simplexes explode combinatorially (stars and bars:
``C(100/step + parts - 1, parts - 1)`` vectors), which historically
forced :func:`~repro.core.params.share_step_for` to coarsen the grid as
the device count grows.  Two mechanisms make fine grids tractable
again:

* **Sharding** (``shards=``): :func:`plan_share_shards` splits the
  share simplex into contiguous lexicographic ranges; each shard runs
  the same columnar per-part walk over its slice and the per-shard
  argmins reduce with the deterministic tie-break rule (earlier shard
  wins ties, i.e. the lexicographically earliest share vector — exactly
  what the unsharded walk picks).  Because the simulator's noise is a
  pure function of the measurement key, shard composition can never
  change a measured value: results are bit-identical for every shard
  count, whether shards run serially or over a process pool
  (``processes=``, start method via
  :func:`~repro.core.pool.pool_context`).

* **Refinement** (``refine=``): enumerate the full simplex at the
  space's coarse step, then re-enumerate a ±2-step neighborhood of the
  incumbent share vector at half the step, recursively down to the
  requested target step (the paper-grid 2.5 %, or 1.25 % for huge
  inputs).  The incumbent is only replaced by a *strictly* better
  vector, so the refined optimum is monotonically non-increasing and
  the whole schedule stays deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..machines.affinity import affinity_domain
from .energy import ConfigurationEvaluator, Energy
from .params import (
    SHARE_SUM_TOL,
    DeviceSlot,
    ParameterSpace,
    SystemConfiguration,
    part_mb_columns,
)

#: How far (in fine-grid steps, per share component) a refinement level
#: searches around the incumbent share vector.
REFINE_RADIUS = 2


@dataclass(frozen=True)
class EnumerationResult:
    """Best configuration of a full space walk."""

    best_config: SystemConfiguration
    best_energy: Energy
    configurations: int  # how many configurations were scored


def enumerate_best(
    space: ParameterSpace,
    evaluator: ConfigurationEvaluator,
    size_mb: float,
    *,
    engine=None,
    batch_size: int = 512,
) -> EnumerationResult:
    """Score every configuration; return the best.

    Ties break toward the earlier configuration in Table I order, making
    the result deterministic.  With an ``engine`` the walk proceeds in
    ``batch_size`` chunks through :class:`~repro.core.engine` batch
    evaluation — on the ML evaluator that vectorizes the whole space
    walk instead of scoring one configuration at a time — with identical
    results (same configurations, same order, same tie-breaks).
    """
    best_config: SystemConfiguration | None = None
    best_energy: Energy | None = None
    count = 0
    for config, energy in _scored_configs(
        space, evaluator, size_mb, engine=engine, batch_size=batch_size
    ):
        count += 1
        if best_energy is None or energy.value < best_energy.value:
            best_config, best_energy = config, energy
    assert best_config is not None and best_energy is not None
    return EnumerationResult(best_config, best_energy, count)


def _scored_configs(
    space: ParameterSpace,
    evaluator: ConfigurationEvaluator,
    size_mb: float,
    *,
    engine,
    batch_size: int,
):
    """Yield ``(config, energy)`` in Table I order, batched when engined."""
    if engine is None:
        for config in space.iter_configs():
            yield config, evaluator.evaluate(config, size_mb)
        return
    from .evaluators import EnergyObjective

    objective = EnergyObjective(evaluator, size_mb)
    chunk: list[SystemConfiguration] = []
    for config in space.iter_configs():
        chunk.append(config)
        if len(chunk) >= batch_size:
            yield from zip(chunk, engine.evaluate_batch(objective, chunk))
            chunk = []
    if chunk:
        yield from zip(chunk, engine.evaluate_batch(objective, chunk))


def _side_grid_times(
    sim, side: str, threads: tuple, affinities: tuple, mb_per_fraction: np.ndarray
) -> np.ndarray:
    """Measure one side's ``(combo, fraction)`` grid as arrays.

    Combos are ordered threads-major / affinity-minor (Table I order);
    zero-MB fractions cost 0 s without consuming an experiment, exactly
    like the historical per-call loop.
    """
    codes = np.asarray(
        [affinity_domain(side).index(a) for a in affinities], dtype=np.int64
    )
    n_combo, n_f = len(threads) * len(affinities), len(mb_per_fraction)
    threads_col = np.repeat(np.asarray(threads, dtype=np.int64), len(affinities) * n_f)
    codes_col = np.tile(np.repeat(codes, n_f), len(threads))
    mb_col = np.tile(mb_per_fraction, n_combo)
    times = np.zeros(n_combo * n_f)
    sel = mb_col > 0
    measure = sim.measure_host_columns if side == "host" else sim.measure_device_columns
    if sel.any():
        times[sel] = measure(threads_col[sel], codes_col[sel], mb_col[sel])
    return times.reshape(n_combo, n_f)


def _part_mb_per_share(
    share_vectors: Sequence[Sequence[float]], size_mb: float
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-part megabytes for every share vector (residual-last rule).

    Delegates to the shared :func:`~repro.core.params.part_mb_columns`
    over the share grid, so the separable walk measures the exact
    megabyte values a faithful per-configuration walk would.
    """
    shares = np.asarray(share_vectors, dtype=np.float64)
    return part_mb_columns(
        shares[:, 0], [shares[:, k] for k in range(2, shares.shape[1])], size_mb
    )


def _combo_columns(
    threads: tuple, affinities: tuple, side: str, n_mb: int
) -> tuple[np.ndarray, np.ndarray]:
    """Combo-major ``(threads, codes)`` columns repeated per mb value."""
    codes = np.asarray([affinity_domain(side).index(a) for a in affinities], dtype=np.int64)
    threads_col = np.repeat(np.asarray(threads, dtype=np.int64), len(affinities) * n_mb)
    codes_col = np.tile(np.repeat(codes, n_mb), len(threads))
    return threads_col, codes_col


def _part_grid_times(
    time_grid, part: int, threads: tuple, affinities: tuple, mbs: np.ndarray
) -> np.ndarray:
    """One part's ``(combo, mb)`` time grid; zero-MB entries cost 0 s.

    ``time_grid(part, threads_col, codes_col, mb_col)`` times positive-MB
    entries only (``part`` is -1 for the host, else the device index),
    exactly like the single-device fast path.
    """
    side = "host" if part < 0 else "device"
    n_combo, n_mb = len(threads) * len(affinities), len(mbs)
    threads_col, codes_col = _combo_columns(threads, affinities, side, n_mb)
    mb_col = np.tile(mbs, n_combo)
    times = np.zeros(n_combo * n_mb)
    sel = mb_col > 0
    if sel.any():
        times[sel] = time_grid(part, threads_col[sel], codes_col[sel], mb_col[sel])
    return times.reshape(n_combo, n_mb)


#: Per-part ``(threads, affinities)`` grids: host first, then devices.
PartGrids = tuple[tuple[tuple, tuple], ...]


def _part_grids(space: ParameterSpace) -> PartGrids:
    """The per-part grids of a space, host first (the walk's axis order)."""
    return ((space.host_threads, space.host_affinities), *space.device_grids)


def _combo_count(part_grids: PartGrids) -> int:
    """How many (threads, affinity) combo products the grids span."""
    count = 1
    for threads, affinities in part_grids:
        count *= len(threads) * len(affinities)
    return count


def _separable_walk(
    part_grids: PartGrids,
    share_vectors: tuple[tuple[float, ...], ...],
    time_grid,
    size_mb: float,
) -> EnumerationResult:
    """Separable enumeration over one slice of a share simplex.

    For a fixed share vector the parts are independent, so the slice
    optimum is ``min over shares of (max over parts of the part's best
    combo time)`` — each part's ``combos x unique-mb`` grid is timed
    once as columns and the cross product never materializes.  Ties
    break deterministically: per part, the earliest combo in Table I
    order; across share vectors, the earliest vector in simplex
    (lexicographic) order.  Because times are a pure function of
    ``(part, threads, affinity, mb)``, the result over a slice is
    independent of which other slices exist — the invariant sharding
    relies on.
    """
    host_mb, dev_mbs = _part_mb_per_share(share_vectors, size_mb)
    n_shares = len(share_vectors)
    num_parts = len(part_grids)
    # Per part: unique mb values, each combo timed once per unique mb.
    best_time = np.empty((num_parts, n_shares))
    best_combo: list[np.ndarray] = []
    part_mbs = [host_mb, *dev_mbs]
    for p, (mbs, (threads, affinities)) in enumerate(zip(part_mbs, part_grids)):
        uniq, inverse = np.unique(mbs, return_inverse=True)
        grid = _part_grid_times(time_grid, p - 1, threads, affinities, uniq)
        combo_at = np.argmin(grid, axis=0)  # first minimum per unique mb
        best_time[p] = grid[combo_at, np.arange(len(uniq))][inverse]
        best_combo.append(combo_at[inverse])
    energy = best_time.max(axis=0)
    j = int(np.argmin(energy))
    shares = share_vectors[j]

    def combo(part: int) -> tuple[int, str]:
        threads, affinities = part_grids[part]
        c = int(best_combo[part][j])
        return threads[c // len(affinities)], affinities[c % len(affinities)]

    host_threads, host_affinity = combo(0)
    slots = [combo(1 + k) for k in range(num_parts - 1)]
    best_config = SystemConfiguration(
        host_threads=host_threads,
        host_affinity=host_affinity,
        device_threads=slots[0][0],
        device_affinity=slots[0][1],
        host_fraction=shares[0],
        extra_devices=tuple(
            DeviceSlot(t, a, s) for (t, a), s in zip(slots[1:], shares[2:])
        ),
    )
    best_energy = Energy(
        float(best_time[0, j]),
        float(best_time[1, j]),
        tuple(float(best_time[2 + k, j]) for k in range(num_parts - 2)),
    )
    return EnumerationResult(
        best_config, best_energy, _combo_count(part_grids) * n_shares
    )


# --- shard planning and reduction -------------------------------------------


def plan_share_shards(n_vectors: int, shards: int) -> tuple[tuple[int, int], ...]:
    """Contiguous lexicographic ``[start, stop)`` ranges over a simplex.

    Splits ``n_vectors`` share vectors into at most ``shards`` nearly
    equal contiguous ranges (the first ``n_vectors % shards`` ranges
    carry one extra vector).  Empty ranges are never produced, so the
    plan has ``min(shards, n_vectors)`` entries and their union is
    exactly ``range(n_vectors)`` — the shard-union == full-simplex
    equivalence the tests pin.
    """
    if n_vectors < 1:
        raise ValueError(f"n_vectors must be >= 1, got {n_vectors}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, n_vectors)
    base, extra = divmod(n_vectors, shards)
    ranges: list[tuple[int, int]] = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return tuple(ranges)


def _reduce_shards(results: Sequence[EnumerationResult]) -> EnumerationResult:
    """Global argmin over per-shard argmins (deterministic tie-break).

    Shards cover contiguous lexicographic ranges in order, so keeping
    the *earliest* shard on energy ties reproduces the unsharded rule
    (lexicographically earliest share vector) exactly.
    """
    best = results[0]
    total = results[0].configurations
    for r in results[1:]:
        total += r.configurations
        if r.best_energy.value < best.best_energy.value:
            best = r
    return EnumerationResult(best.best_config, best.best_energy, total)


def _measured_shard_worker(args: tuple) -> EnumerationResult:
    """Picklable fan-out target: rebuilds the substrate in the worker.

    The simulator's noise is a pure function of ``(seed, side, threads,
    affinity, mb)``, so a worker-local rebuild measures bit-identical
    values to the parent's simulator.
    """
    platform, workload, seed, noise, part_grids, vectors, size_mb = args
    from ..machines.simulator import PlatformSimulator

    sim = PlatformSimulator(platform, workload, noise=noise, seed=seed)
    return _separable_walk(part_grids, vectors, _measured_time_grid(sim), size_mb)


def _ml_shard_worker(args: tuple) -> EnumerationResult:
    """Picklable fan-out target: the trained predictors travel by pickle."""
    ml, part_grids, vectors, size_mb = args
    return _separable_walk(part_grids, vectors, _ml_time_grid(ml), size_mb)


def _measured_time_grid(sim) -> Callable:
    """Part-indexed columnar measurement closure over a simulator."""

    def measured(part: int, threads, codes, mb):
        if part < 0:
            return sim.measure_host_columns(threads, codes, mb)
        return sim.measure_device_columns(threads, codes, mb, device=part)

    return measured


def _ml_time_grid(ml) -> Callable:
    """Part-indexed columnar prediction closure over trained predictors."""

    def predicted(part: int, threads, codes, mb):
        return ml.predict_part("host" if part < 0 else "device", threads, codes, mb)

    return predicted


# --- coarse-to-fine refinement ----------------------------------------------


def refine_share_steps(start_step: float, target_step: float) -> tuple[float, ...]:
    """The halving schedule from a coarse share step down to a target.

    Each level halves the previous step; the last level snaps to the
    target when a clean halving would overshoot it (e.g. quadphi's
    12.5 % coarse grid refines through 6.25 and 3.125 down to the
    paper-grid 2.5).  An already-fine start yields an empty schedule.
    """
    if target_step <= 0:
        raise ValueError(f"target step must be positive, got {target_step}")
    if start_step <= 0:
        raise ValueError(f"start step must be positive, got {start_step}")
    steps: list[float] = []
    step = float(start_step)
    while step - float(target_step) > SHARE_SUM_TOL:
        step = step / 2.0
        if step < float(target_step):
            step = float(target_step)
        steps.append(step)
    return tuple(steps)


def _share_grid_step(share_vectors: Sequence[Sequence[float]]) -> float | None:
    """The grid step of a share simplex (minimum positive component gap).

    For grids built by :func:`~repro.core.params.share_simplex` this is
    exactly the construction step; for hand-written vector sets it is
    the finest resolvable gap, which is what refinement should start
    halving from.  ``None`` when every component is identical (nothing
    to refine).
    """
    values = sorted({float(s) for vec in share_vectors for s in vec})
    gaps = [b - a for a, b in zip(values, values[1:]) if b - a > SHARE_SUM_TOL]
    return min(gaps) if gaps else None


def neighborhood_share_vectors(
    center: Sequence[float], step: float
) -> tuple[tuple[float, ...], ...]:
    """Share vectors on the ``step`` grid near ``center``, lexicographic.

    Every component stays within :data:`REFINE_RADIUS` grid steps of the center's
    (grid-snapped) component and the vector sums to exactly 100.  The
    center itself is included whenever it lies on the grid; when it does
    not (a snapped level after the schedule clamps to the target step),
    the neighborhood still brackets it, and callers keep the incumbent
    unless a strictly better vector appears.
    """
    if step <= 0 or step > 100:
        raise ValueError(f"step must be in (0, 100], got {step}")
    total = round(100.0 / step)
    if abs(total * step - 100.0) > SHARE_SUM_TOL:
        raise ValueError(f"step {step} does not divide 100 evenly")
    lo: list[int] = []
    hi: list[int] = []
    for share in center:
        units = share / step
        lo.append(max(0, math.floor(units) - REFINE_RADIUS))
        hi.append(min(total, math.ceil(units) + REFINE_RADIUS))
    n = len(lo)
    lo_suffix = [0] * (n + 1)
    hi_suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        lo_suffix[i] = lo_suffix[i + 1] + lo[i]
        hi_suffix[i] = hi_suffix[i + 1] + hi[i]
    out: list[tuple[float, ...]] = []

    def walk(i: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if i == n - 1:
            if lo[i] <= remaining <= hi[i]:
                out.append(tuple(float(k * step) for k in (*prefix, remaining)))
            return
        for k in range(lo[i], hi[i] + 1):
            rest = remaining - k
            if lo_suffix[i + 1] <= rest <= hi_suffix[i + 1]:
                walk(i + 1, rest, (*prefix, k))

    walk(0, total, ())
    return tuple(out)


def _sharded_refined_walk(
    space: ParameterSpace,
    time_grid,
    size_mb: float,
    *,
    shards: int,
    refine: float | None,
    processes: int | None,
    start_method: str | None,
    worker,
    job_payload,
    coarse: EnumerationResult | None = None,
) -> EnumerationResult:
    """Sharded coarse walk plus the optional coarse-to-fine schedule.

    ``worker`` / ``job_payload`` describe the picklable per-shard job
    for the pooled path; the serial path reuses ``time_grid`` directly.
    Every refinement level walks the incumbent's ±``REFINE_RADIUS``
    neighborhood at the level's step through the same sharded reduction,
    replacing the incumbent only when strictly better — so the final
    optimum is monotonically non-increasing in the number of levels and
    bit-identical across shard counts and start methods.

    ``coarse`` warm-starts the schedule: a caller that already holds
    the *coarse-level* result for this exact (space, substrate, size) —
    e.g. the campaign cache read-through serving a refined request on a
    cell whose unrefined walk is stored — passes it here and the full
    simplex walk is skipped.  The warm result carries the coarse
    level's configuration count, so totals (and therefore the returned
    result) are bit-identical to a cold refined walk.
    """
    part_grids = _part_grids(space)
    pooled = processes is not None and processes > 1 and shards > 1

    def run_level(vectors: tuple[tuple[float, ...], ...]) -> EnumerationResult:
        ranges = plan_share_shards(len(vectors), shards)
        if pooled and len(ranges) > 1:
            from repro.reliability import SITE_ENUM_SHARD

            from .pool import run_tasks

            jobs = [
                (*job_payload, part_grids, vectors[a:b], size_mb) for a, b in ranges
            ]
            # Fault-tolerant dispatch: a crashed or timed-out shard is
            # re-dispatched (and ultimately recomputed in-process), so a
            # wedged worker degrades the walk's wall-clock, never its
            # result — shard reductions stay bit-identical.
            results, _ = run_tasks(
                worker,
                jobs,
                processes=processes,
                start_method=start_method,
                site=SITE_ENUM_SHARD,
            )
        else:
            results = [
                _separable_walk(part_grids, vectors[a:b], time_grid, size_mb)
                for a, b in ranges
            ]
        return _reduce_shards(results)

    best = run_level(space.share_vectors) if coarse is None else coarse
    total = best.configurations
    if refine is not None:
        coarse_step = _share_grid_step(space.share_vectors)
        if coarse_step is not None:
            for fine_step in refine_share_steps(coarse_step, float(refine)):
                vectors = neighborhood_share_vectors(
                    best.best_config.shares, fine_step
                )
                level = run_level(vectors)
                total += level.configurations
                if level.best_energy.value < best.best_energy.value:
                    best = level
    return EnumerationResult(best.best_config, best.best_energy, total)


def enumerate_best_separable(
    space: ParameterSpace,
    sim,
    size_mb: float,
    *,
    shards: int = 1,
    refine: float | None = None,
    processes: int | None = None,
    start_method: str | None = None,
    coarse: EnumerationResult | None = None,
) -> EnumerationResult:
    """Fast exact enumeration exploiting objective separability.

    Produces the same optimum as :func:`enumerate_best` over a
    :class:`~repro.core.evaluators.MeasurementEvaluator` on the same
    simulator (asserted by the integration tests), in
    ``O(host_grid + device_grid + |space|)`` time.  Both per-side
    measurement grids go through the simulator's columnar fast path and
    the ``|space|``-sized cross product is a single broadcast
    ``max``/``argmin`` — no per-configuration Python at all.  Ties break
    toward the earlier configuration in Table I order (C-order argmin),
    matching the historical comparison loop exactly.

    Multi-device spaces route through the per-part separable walk: one
    columnar measurement grid per part (every device keeps its own
    model and noise stream) composed as ``E = max`` over parts, with
    the deterministic tie-breaks documented on :func:`_separable_walk`.
    They also honor the scale-out knobs (see the module docstring):

    ``shards``
        Split the share simplex into that many contiguous lexicographic
        slices and reduce per-slice argmins — bounding each slice's
        working set and enabling process fan-out, with bit-identical
        results for every shard count.
    ``refine``
        Target share step in percent: after the coarse walk, refine the
        incumbent's neighborhood level by level down to this step
        (e.g. ``2.5`` for paper-grid fidelity).
    ``processes`` / ``start_method``
        Fan shards out over a process pool (workers rebuild the
        deterministic substrate from the simulator's identity); the
        start method follows :func:`~repro.core.pool.pool_context`.
    ``coarse``
        Warm-start for the refinement schedule: the coarse-level
        result for this exact walk, if the caller already holds it
        (see :func:`_sharded_refined_walk`) — the full simplex walk is
        skipped and results stay bit-identical to a cold walk.

    Single-device spaces already enumerate their full 2.5 %-step
    fraction grid directly, so the knobs are no-ops there.
    """
    if space.num_devices > 1:
        return _sharded_refined_walk(
            space,
            _measured_time_grid(sim),
            size_mb,
            shards=shards,
            refine=refine,
            processes=processes,
            start_method=start_method,
            worker=_measured_shard_worker,
            job_payload=(sim.platform, sim.workload, sim.seed, sim.noise),
            coarse=coarse,
        )
    fractions = np.asarray(space.fractions, dtype=np.float64)
    host_mb = size_mb * fractions / 100.0
    device_mb = size_mb - host_mb
    th = _side_grid_times(sim, "host", space.host_threads, space.host_affinities, host_mb)
    td = _side_grid_times(
        sim, "device", space.device_threads, space.device_affinities, device_mb
    )
    energy = np.maximum(th[:, None, :], td[None, :, :])  # (host, device, fraction)
    flat_best = int(np.argmin(energy.reshape(-1)))
    h, d, f = np.unravel_index(flat_best, energy.shape)
    n_ha = len(space.host_affinities)
    n_da = len(space.device_affinities)
    best_config = SystemConfiguration(
        space.host_threads[h // n_ha],
        space.host_affinities[h % n_ha],
        space.device_threads[d // n_da],
        space.device_affinities[d % n_da],
        float(fractions[f]),
    )
    best_energy = Energy(float(th[h, f]), float(td[d, f]))
    return EnumerationResult(best_config, best_energy, space.size())


def enumerate_best_separable_ml(
    space: ParameterSpace,
    ml,
    size_mb: float,
    *,
    shards: int = 1,
    refine: float | None = None,
    processes: int | None = None,
    start_method: str | None = None,
) -> EnumerationResult:
    """Separable EML walk for multi-device spaces (predictions, no cost).

    The ML objective is separable exactly like the measured one (each
    part's predicted time depends only on its own columns), so the full
    multi-device product space never needs one prediction per
    configuration: each part's ``combos x unique-mb`` grid goes through
    the vectorized ensemble predictor once.  Tie-breaks follow
    :func:`_separable_walk`; ``shards`` / ``refine`` / ``processes`` /
    ``start_method`` behave exactly as on
    :func:`enumerate_best_separable` (pooled shards pickle the trained
    predictors to the workers — predictions are deterministic, so
    results stay bit-identical).
    """
    if space.num_devices == 1:
        raise ValueError("single-device spaces use enumerate_best on the ML evaluator")
    return _sharded_refined_walk(
        space,
        _ml_time_grid(ml),
        size_mb,
        shards=shards,
        refine=refine,
        processes=processes,
        start_method=start_method,
        worker=_ml_shard_worker,
        job_payload=(ml,),
    )
