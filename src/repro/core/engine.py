"""Pluggable batched evaluation engines: ``list[config] -> list[value]``.

Every layer of the tuner ultimately spends its time scoring candidate
system configurations — the 7200-experiment training grid, the 19 926
configurations of an EM/EML space walk, and every objective call made by
simulated annealing and the ablation metaheuristics.  Historically each
of those callers pulled values one at a time through a scalar
``config -> value`` callable, which leaves throughput on the table
whenever the underlying evaluator can amortize work across candidates
(the ML predictor's tree ensembles and the simulator's columnar
measurement path both vectorize over a whole batch).

An :class:`EvaluationEngine` turns the scalar protocol into a batched
one.  Engines are value-type agnostic: they pass through whatever the
objective returns (``float`` for the search layer,
:class:`~repro.core.energy.Energy` for the annealer/enumerator), so one
engine instance can back any caller.

Backends and trade-offs
-----------------------

:class:`SerialEngine`
    Reference semantics: calls the objective once per configuration, in
    order.  Zero overhead, zero speedup; every other backend must match
    its results bit-for-bit on deterministic objectives (the regression
    tests in ``tests/core/test_engine.py`` assert exactly that).

:class:`CachedEngine`
    Memoizes values per (objective, configuration).  Annealing revisits
    neighbors constantly and tabu/hill-climbing re-score recent points,
    so repeat lookups are common; for deterministic objectives the cache
    is semantically invisible and ``cache_hits`` exposes how much work
    it saved.  Wraps any inner engine (default: serial), so caching and
    batching compose (``cached+batched``).  Memory grows with the number
    of distinct configurations seen — bounded by the space size.

:class:`BatchedEngine`
    Exploits objectives that expose ``evaluate_batch``: whole candidate
    batches are pushed through a vectorized NumPy path in one call
    instead of per-config Python work (see
    ``benchmarks/test_bench_engine.py``).  Two evaluator families hit
    NumPy this way: :class:`~repro.core.evaluators.MLEvaluator` runs
    packed tree-ensemble descent over the whole design matrix, and
    :class:`~repro.core.evaluators.MeasurementEvaluator` columnarizes
    uncached configurations into a
    :class:`~repro.core.params.ConfigTable` and scores them through the
    vectorized analytic core (array-native perf model, roofline, and
    seed-per-key simulator noise) — so batching pays off for *both*
    prediction- and measurement-backed searches.  Without a batch
    method it degrades to a serial loop.

Use :func:`make_engine` to construct a backend by name — the CLI's
``--engine``/``--batch-size`` flags map straight onto it.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .params import SystemConfiguration

#: Scalar objective protocol; implementations may additionally expose
#: ``evaluate_batch(configs) -> list`` for the batched fast path.
Objective = Callable[[SystemConfiguration], Any]

#: Engine names accepted by :func:`make_engine` (and ``--engine``).
ENGINE_NAMES: tuple[str, ...] = ("serial", "cached", "batched", "cached+batched")


@dataclass
class EngineStats:
    """Work accounting for one engine instance.

    ``cache_hits`` is monotone non-decreasing: it only ever counts
    additional lookups served from memory, never un-counts them.
    """

    batches: int = 0
    evaluations: int = 0
    cache_hits: int = 0


class EvaluationEngine(ABC):
    """Batched evaluation strategy: ``list[config] -> list[value]``."""

    name: str = "engine"

    def __init__(self) -> None:
        self.stats = EngineStats()

    # -- public protocol ---------------------------------------------------

    def evaluate(self, objective: Objective, config: SystemConfiguration):
        """Score a single configuration (a batch of one)."""
        return self.evaluate_batch(objective, [config])[0]

    def evaluate_batch(
        self, objective: Objective, configs: Sequence[SystemConfiguration]
    ) -> list:
        """Score ``configs`` in order; returns one value per configuration."""
        configs = list(configs)
        self.stats.batches += 1
        self.stats.evaluations += len(configs)
        return self._evaluate_batch(objective, configs)

    @abstractmethod
    def _evaluate_batch(
        self, objective: Objective, configs: list[SystemConfiguration]
    ) -> list:
        """Backend-specific batch evaluation."""

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (worker pools); idempotent."""

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def cache_hits(self) -> int:
        """Lookups served from memory so far (0 for cacheless backends)."""
        return self.stats.cache_hits


class SerialEngine(EvaluationEngine):
    """Reference backend: one objective call per configuration, in order."""

    name = "serial"

    def _evaluate_batch(
        self, objective: Objective, configs: list[SystemConfiguration]
    ) -> list:
        return [objective(config) for config in configs]


class CachedEngine(EvaluationEngine):
    """Memoizing backend: repeat configurations are served from memory.

    Caches are kept per objective (weakly referenced, so an engine
    shared across many runs does not pin dead objectives or their
    caches), keyed by the configuration itself —
    :class:`~repro.core.params.SystemConfiguration` is a frozen
    dataclass, so its hash/equality always covers every field.  One
    engine can serve several objectives without cross-talk; per live
    objective, memory is bounded by the space size.  Only sound for
    deterministic objectives — which all of this repo's evaluators are
    (the simulator's noise is deterministic per configuration).
    """

    name = "cached"

    def __init__(self, inner: EvaluationEngine | None = None) -> None:
        super().__init__()
        self.inner = inner if inner is not None else SerialEngine()
        self._caches: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _evaluate_batch(
        self, objective: Objective, configs: list[SystemConfiguration]
    ) -> list:
        cache = self._caches.setdefault(objective, {})
        # First occurrence of each missing configuration, serial order.
        miss_configs: list[SystemConfiguration] = []
        seen: set[SystemConfiguration] = set()
        for config in configs:
            if config not in cache and config not in seen:
                seen.add(config)
                miss_configs.append(config)
        if miss_configs:
            values = self.inner.evaluate_batch(objective, miss_configs)
            for config, value in zip(miss_configs, values):
                cache[config] = value
        self.stats.cache_hits += len(configs) - len(miss_configs)
        return [cache[config] for config in configs]

    def close(self) -> None:
        self.inner.close()


class BatchedEngine(EvaluationEngine):
    """Vectorizing backend: pushes whole batches through the objective.

    Parameters
    ----------
    batch_size:
        Maximum configurations per underlying batch call.  Larger batches
        amortize NumPy dispatch further but delay results; 64-512 is the
        sweet spot for the ML predictor.
    """

    name = "batched"

    def __init__(self, batch_size: int = 64) -> None:
        super().__init__()
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size

    def _chunks(self, items: list) -> Iterable[list]:
        for start in range(0, len(items), self.batch_size):
            yield items[start : start + self.batch_size]

    def _evaluate_batch(
        self, objective: Objective, configs: list[SystemConfiguration]
    ) -> list:
        batch_call = getattr(objective, "evaluate_batch", None)
        out: list = []
        for chunk in self._chunks(configs):
            if batch_call is not None:
                out.extend(batch_call(chunk))
            else:
                out.extend(objective(config) for config in chunk)
        return out


def make_engine(name: str, *, batch_size: int = 64) -> EvaluationEngine:
    """Construct an engine by name (the ``--engine`` CLI choices).

    ``cached+batched`` composes both: memoization in front of the
    vectorized batch path, which is the strongest setting for annealing
    on the ML predictor.
    """
    key = name.strip().lower()
    if key == "serial":
        return SerialEngine()
    if key == "cached":
        return CachedEngine()
    if key == "batched":
        return BatchedEngine(batch_size)
    if key == "cached+batched":
        return CachedEngine(BatchedEngine(batch_size))
    raise ValueError(
        f"unknown engine {name!r}; expected one of {', '.join(ENGINE_NAMES)}"
    )
