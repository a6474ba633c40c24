"""One frozen options object for the execution knobs of every tuner entry.

``engine`` / ``batch_size`` / ``shards`` / ``refine`` / ``processes`` /
``start_method`` (plus ``retry`` / ``transfer`` / ``portfolio``) are
declared once, here.  :func:`~repro.core.campaign.tune_platform`,
:func:`~repro.core.campaign.tune_scenario`,
:func:`~repro.core.campaign.tune_matrix`,
:meth:`~repro.service.store.CellKey.for_request`, the CLI and the
service all take them as one ``options=`` argument (``None`` means the
defaults), so there is a single path from a knob to the code it drives.

The split of responsibilities is deliberate:

* ``engine`` / ``batch_size`` / ``refine`` change *what is computed*
  (engine statistics are embedded in reports; ``refine`` changes the
  enumerated fidelity) and therefore belong to the request identity
  (:meth:`repro.service.store.CellKey.for_request` consumes these).
* ``shards`` / ``processes`` / ``start_method`` / ``retry`` change only
  *how* the computation is executed — results are bit-identical by
  construction — so they never enter cache keys or the store.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.reliability import RetryPolicy

from .engine import ENGINE_NAMES, EvaluationEngine, make_engine

if TYPE_CHECKING:  # import cycle: portfolio consumes TuningOptions-tuned cells
    from .portfolio import PortfolioSpec

@dataclass(frozen=True)
class TuningOptions:
    """Execution knobs shared by all tuning entry points.

    Attributes
    ----------
    engine:
        Evaluation backend: an engine *name* (``serial`` / ``cached`` /
        ``batched`` / ``cached+batched``, see
        :func:`~repro.core.engine.make_engine`; normalized to lower
        case, unknown names are rejected), or ``None`` to call
        evaluators directly.  Every cell builds its own instance, so
        engine statistics stay per cell.
    batch_size:
        Configurations per batch when ``engine`` names a batched engine.
    shards:
        Share-simplex shard count for multi-device enumeration
        (bit-identical for any count, see
        :func:`~repro.core.enumeration.enumerate_best_separable`).
    refine:
        Coarse-to-fine target share step [%] for multi-device
        enumeration, or ``None`` for the coarse grid only.
    processes:
        Fan matrix cells (or enumeration shards) out over this
        many worker processes; ``None``/``1`` runs serially.
    start_method:
        Pool start method override (default: safest available, see
        :data:`~repro.core.pool.START_METHOD_PREFERENCE`).
    retry:
        :class:`~repro.reliability.RetryPolicy` governing pooled
        dispatch (re-dispatch of crashed/timed-out tasks, pool rebuild,
        serial degradation — see :func:`~repro.core.pool.run_tasks`);
        ``None`` uses :data:`~repro.reliability.DEFAULT_RETRY_POLICY`.
        Execution-only, like ``processes``: never part of cache keys.
    transfer:
        Warm-start ML training from the cell's nearest already-rankable
        neighbor (:mod:`repro.ml.transfer`) instead of training from
        scratch.  Changes the fitted models and the training budget, so
        it is part of the request identity
        (:meth:`repro.service.store.CellKey.for_request`).
    portfolio:
        A :class:`~repro.core.portfolio.PortfolioSpec` racing the
        searcher portfolio under successive halving instead of running a
        single named method, or ``None`` for the classic single-method
        path.  Part of the request identity (the winner and its budget
        ledger depend on the schedule).
    """

    engine: str | None = "cached+batched"
    batch_size: int = 64
    shards: int = 1
    refine: float | None = None
    processes: int | None = None
    start_method: str | None = None
    retry: RetryPolicy | None = None
    transfer: bool = False
    portfolio: "PortfolioSpec | None" = None

    def __post_init__(self) -> None:
        if self.engine is not None:
            engine = self.engine
            if isinstance(engine, str):
                engine = engine.strip().lower()
            if engine not in ENGINE_NAMES:
                raise ValueError(
                    f"unknown engine {self.engine!r}; expected one of "
                    f"{', '.join(ENGINE_NAMES)}"
                )
            object.__setattr__(self, "engine", engine)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.refine is not None and self.refine <= 0:
            raise ValueError(f"refine must be positive, got {self.refine}")
        if self.processes is not None and self.processes < 1:
            raise ValueError(f"processes must be >= 1, got {self.processes}")

    def for_cell(self) -> "TuningOptions":
        """The per-cell view of fleet-level options.

        Campaigns and matrices consume ``processes`` / ``start_method``
        at the fan-out level; the per-cell computation must not nest
        another pool, so cells receive this stripped copy.
        """
        if self.processes is None and self.start_method is None:
            return self
        return replace(self, processes=None, start_method=None)

    def engine_instance(self) -> EvaluationEngine | None:
        """A fresh engine for ``engine`` (``None`` for direct evaluation).

        Callers that want per-cell engine statistics call this once per
        cell.
        """
        if self.engine is None:
            return None
        return make_engine(self.engine, batch_size=self.batch_size)
