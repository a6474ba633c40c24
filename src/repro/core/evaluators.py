"""Configuration evaluators: measurements vs machine-learning prediction.

Table II's two evaluation columns.  Both expose the same protocol so the
annealer and the enumerator are agnostic of how a configuration is
scored:

* :class:`MeasurementEvaluator` — runs the (simulated) platform; slow
  and counted, one *experiment* per new configuration (memoized, since
  the paper measures each configuration once).
* :class:`MLEvaluator` — two trained regressors predict ``T_host`` and
  ``T_device``; free at search time, which is what lets SAML/EML
  explore without touching the machine.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..machines.simulator import PlatformSimulator
from ..ml.dataset import encode_device_row, encode_host_row
from ..ml.validation import Regressor
from .energy import Energy
from .params import ConfigTable, SystemConfiguration


def _cache_key(config: SystemConfiguration, size_mb: float) -> tuple:
    """The memoization key shared by scalar and batched measurement paths."""
    return (
        config.host_threads,
        config.host_affinity,
        config.device_threads,
        config.device_affinity,
        config.host_fraction,
        config.extra_devices,
        size_mb,
    )


class MeasurementEvaluator:
    """Score configurations by timed execution on the platform.

    Handles any device count: each part (host, device 0, ..., device
    N-1) is measured on its own substrate stream and the energy is the
    max over all overlapped parts.
    """

    def __init__(self, sim: PlatformSimulator) -> None:
        self.sim = sim
        self._cache: dict[tuple, Energy] = {}
        self._evaluations = 0

    @property
    def evaluations(self) -> int:
        """Distinct configurations measured (the paper's experiment count)."""
        return self._evaluations

    def evaluate(self, config: SystemConfiguration, size_mb: float) -> Energy:
        """Measure one configuration (cached: one experiment per config)."""
        key = _cache_key(config, size_mb)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        host_mb, device_mbs = config.part_megabytes(size_mb)
        t_host = (
            self.sim.measure_host(config.host_threads, config.host_affinity, host_mb)
            if host_mb > 0
            else 0.0
        )
        t_devices = [
            self.sim.measure_device(slot.threads, slot.affinity, mb, device=k)
            if mb > 0
            else 0.0
            for k, (slot, mb) in enumerate(zip(config.device_slots, device_mbs))
        ]
        energy = Energy(t_host, t_devices[0], tuple(t_devices[1:]))
        self._cache[key] = energy
        self._evaluations += 1
        return energy

    def evaluate_batch(
        self, configs: Sequence[SystemConfiguration], size_mb: float
    ) -> list[Energy]:
        """Measure a batch of configurations (each counted/cached as usual).

        Uncached configurations are columnarized and pushed through the
        simulator's vectorized analytic core in one call per part (host
        plus each device) instead of per-config Python measurements.
        Values, per-config energies, experiment counts, and cache
        semantics are identical to per-config :meth:`evaluate` calls;
        within a batch the measurement log groups host experiments
        first, then each device's (the multiset of measurements is
        unchanged).
        """
        configs = list(configs)
        if len(configs) <= 1:
            return [self.evaluate(config, size_mb) for config in configs]
        keys = []
        miss_pos: list[int] = []
        seen: set[tuple] = set()
        for i, config in enumerate(configs):
            key = _cache_key(config, size_mb)
            keys.append(key)
            if key not in self._cache and key not in seen:
                seen.add(key)
                miss_pos.append(i)
        if miss_pos:
            table = ConfigTable.from_configs([configs[i] for i in miss_pos])
            host_mb, device_mbs = table.part_mb(size_mb)
            t_host = np.zeros(len(table))
            hsel = host_mb > 0
            if hsel.any():
                t_host[hsel] = self.sim.measure_host_columns(
                    table.host_threads[hsel], table.host_codes[hsel], host_mb[hsel]
                )
            t_parts = []
            for k, mb in enumerate(device_mbs):
                threads, codes = table.device_columns(k)
                t_dev = np.zeros(len(table))
                dsel = mb > 0
                if dsel.any():
                    t_dev[dsel] = self.sim.measure_device_columns(
                        threads[dsel], codes[dsel], mb[dsel], device=k
                    )
                t_parts.append(t_dev)
            for j, i in enumerate(miss_pos):
                self._cache[keys[i]] = Energy(
                    float(t_host[j]),
                    float(t_parts[0][j]),
                    tuple(float(t[j]) for t in t_parts[1:]),
                )
            self._evaluations += len(miss_pos)
        return [self._cache[key] for key in keys]


class MLEvaluator:
    """Score configurations with the trained performance predictors.

    ``host_model`` / ``device_model`` predict the execution time of one
    *side* from its raw ``(threads, affinity one-hot, megabytes)`` row —
    the features of Fig. 4 (tree ensembles split on raw values, so no
    normalization precedes them).  A zero-share side costs exactly 0
    (the runtime skips it), mirroring the measurement path.
    """

    def __init__(self, host_model: Regressor, device_model: Regressor) -> None:
        self.host_model = host_model
        self.device_model = device_model
        self._evaluations = 0
        # SA revisits configurations; predictions are deterministic, so
        # per-side memoization saves most of the ensemble traversals.
        self._side_cache: dict[tuple, float] = {}

    @property
    def evaluations(self) -> int:
        """Number of predictions made (not experiments — predictions are free)."""
        return self._evaluations

    def _predict(self, model: Regressor, row: list[float]) -> float:
        key = (id(model), tuple(row))
        hit = self._side_cache.get(key)
        if hit is not None:
            return hit
        predict_one = getattr(model, "predict_one", None)
        if predict_one is not None:
            raw = predict_one(row)
        else:
            raw = float(model.predict(np.atleast_2d(np.asarray(row, dtype=np.float64)))[0])
        # Trees can extrapolate to slightly negative residual sums; a
        # predicted time below zero is physically meaningless.
        value = float(max(raw, 1e-6))
        self._side_cache[key] = value
        return value

    def evaluate(self, config: SystemConfiguration, size_mb: float) -> Energy:
        """Predict E' = max over the predicted per-part times.

        On multi-device configurations every card is predicted with the
        (primary-card) device model — exact for homogeneous nodes, an
        explicit approximation for mixed-card ones (per-card predictors
        would need per-card training grids).
        """
        self._evaluations += 1
        host_mb, device_mbs = config.part_megabytes(size_mb)
        t_host = (
            self._predict(
                self.host_model,
                encode_host_row(config.host_threads, config.host_affinity, host_mb),
            )
            if host_mb > 0
            else 0.0
        )
        t_devices = [
            self._predict(self.device_model, encode_device_row(slot.threads, slot.affinity, mb))
            if mb > 0
            else 0.0
            for slot, mb in zip(config.device_slots, device_mbs)
        ]
        return Energy(t_host, t_devices[0], tuple(t_devices[1:]))

    def _predict_many(self, model: Regressor, rows: list[list[float]]) -> list[float]:
        """Predict many rows with one ensemble traversal for all misses.

        Bit-identical to calling :meth:`_predict` per row: the tree
        ensembles produce the same float64 values on the scalar and the
        vectorized path (same leaves, same accumulation order), and both
        paths share the side cache and the non-negativity clamp.
        """
        values: list[float | None] = [None] * len(rows)
        miss_pos: list[int] = []
        miss_rows: list[list[float]] = []
        for j, row in enumerate(rows):
            hit = self._side_cache.get((id(model), tuple(row)))
            if hit is not None:
                values[j] = hit
            else:
                miss_pos.append(j)
                miss_rows.append(row)
        if miss_rows:
            raw = model.predict(np.asarray(miss_rows, dtype=np.float64))
            for j, r in zip(miss_pos, raw):
                value = float(max(float(r), 1e-6))
                self._side_cache[(id(model), tuple(rows[j]))] = value
                values[j] = value
        return values  # type: ignore[return-value]

    def predict_part(self, side: str, threads, affinities, mb) -> np.ndarray:
        """Predicted times for one part's configuration columns.

        ``side`` selects the host or device predictor; every device of a
        multi-device node shares the device predictor (see
        :meth:`evaluate`).  Values go through the same side cache and
        non-negativity clamp as the scalar path.
        """
        if side == "host":
            model, encode = self.host_model, encode_host_row
        else:
            model, encode = self.device_model, encode_device_row
        rows = [
            encode(int(t), a, float(m)) for t, a, m in zip(threads, affinities, mb)
        ]
        return np.asarray(self._predict_many(model, rows))

    def evaluate_batch(
        self, configs: Sequence[SystemConfiguration], size_mb: float
    ) -> list[Energy]:
        """Predict a whole candidate batch with vectorized ensembles.

        Returns exactly what per-config :meth:`evaluate` calls would,
        but each side's uncached rows go through ``model.predict`` as
        one design matrix instead of one Python tree walk per row —
        the hot path :class:`~repro.core.engine.BatchedEngine` exploits.
        """
        configs = list(configs)
        self._evaluations += len(configs)
        n = len(configs)
        num_devices = configs[0].num_devices if configs else 1
        t_host = [0.0] * n
        t_parts = [[0.0] * n for _ in range(num_devices)]
        host_pos: list[int] = []
        host_rows: list[list[float]] = []
        device_pos: list[tuple[int, int]] = []
        device_rows: list[list[float]] = []
        for i, config in enumerate(configs):
            host_mb, device_mbs = config.part_megabytes(size_mb)
            if host_mb > 0:
                host_pos.append(i)
                host_rows.append(
                    encode_host_row(config.host_threads, config.host_affinity, host_mb)
                )
            for k, (slot, mb) in enumerate(zip(config.device_slots, device_mbs)):
                if mb > 0:
                    device_pos.append((k, i))
                    device_rows.append(
                        encode_device_row(slot.threads, slot.affinity, mb)
                    )
        if host_rows:
            for i, value in zip(
                host_pos, self._predict_many(self.host_model, host_rows)
            ):
                t_host[i] = value
        if device_rows:
            for (k, i), value in zip(
                device_pos,
                self._predict_many(self.device_model, device_rows),
            ):
                t_parts[k][i] = value
        return [
            Energy(t_host[i], t_parts[0][i], tuple(t[i] for t in t_parts[1:]))
            for i in range(n)
        ]


class EnergyObjective:
    """``config -> Energy`` adapter with batch support.

    Bridges an evaluator to the engine protocol for callers that need
    the per-side breakdown (the annealer, the enumerator).  Exposes
    ``evaluate_batch`` so :class:`~repro.core.engine.BatchedEngine` can
    use the evaluator's vectorized path when it has one.
    """

    def __init__(self, evaluator, size_mb: float) -> None:
        self.evaluator = evaluator
        self.size_mb = size_mb

    def __call__(self, config: SystemConfiguration) -> Energy:
        return self.evaluator.evaluate(config, self.size_mb)

    def _energies(self, configs: Sequence[SystemConfiguration]) -> list[Energy]:
        batch = getattr(self.evaluator, "evaluate_batch", None)
        if batch is None:
            return [self.evaluator.evaluate(config, self.size_mb) for config in configs]
        return batch(configs, self.size_mb)

    def evaluate_batch(self, configs: Sequence[SystemConfiguration]) -> list[Energy]:
        return self._energies(configs)


class EvaluatorObjective(EnergyObjective):
    """``config -> float`` adapter (Eq. 2 scalar) with batch support.

    The baseline metaheuristics in :mod:`repro.search` minimize plain
    floats; this collapses each :class:`Energy` to its ``value``.
    """

    def __call__(self, config: SystemConfiguration) -> float:
        return self.evaluator.evaluate(config, self.size_mb).value

    def evaluate_batch(self, configs: Sequence[SystemConfiguration]) -> list[float]:
        return [e.value for e in self._energies(configs)]
