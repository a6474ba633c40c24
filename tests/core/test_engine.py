"""The batched evaluation engine subsystem (core/engine.py).

Covers backend semantics (serial / cached / batched and their
composition), the budget tracker's exact-budget guarantee under uneven
batches, bit-identical results across engines for every searcher and
method, and the cache-transparency properties of :class:`CachedEngine`.
"""

import numpy as np
import pytest

from repro.core import (
    ENGINE_NAMES,
    BatchedEngine,
    CachedEngine,
    EvaluatorObjective,
    ParameterSpace,
    SerialEngine,
    make_engine,
    run_method,
)
from repro.core.engine import EvaluationEngine
from repro.core.training import generate_training_data, train_models
from repro.machines import PlatformSimulator
from repro.search import (
    AntColony,
    BudgetTracker,
    GeneticAlgorithm,
    HillClimbing,
    RandomSearch,
    TabuSearch,
)
from repro.search.base import BudgetExhausted
from support import Recording, first_seen

SPACE = ParameterSpace(
    host_threads=(2, 6, 12, 24, 36, 48),
    device_threads=(2, 4, 8, 16, 30, 60, 120, 180, 240),
)

SMALL_SPACE = ParameterSpace(
    host_threads=(12, 48),
    host_affinities=("scatter",),
    device_threads=(60, 240),
    device_affinities=("balanced",),
    fractions=tuple(float(f) for f in range(0, 101, 10)),
)

ALL_SEARCHERS = [RandomSearch, HillClimbing, TabuSearch, GeneticAlgorithm, AntColony]


def expected_seen(reference: Recording, engine: EvaluationEngine) -> list:
    """What ``engine``'s objective sees when the serial run saw ``reference``.

    A cache passes each configuration through once, at its first
    occurrence; every other backend passes the whole sequence.
    """
    if not isinstance(engine, CachedEngine):
        return reference.seen
    return first_seen(reference.seen)


def analytic_objective(config) -> float:
    return (
        0.5
        + abs(config.host_fraction - 60.0) / 100.0
        + (48 - config.host_threads) / 100.0
        + (240 - config.device_threads) / 1000.0
    )


def engine_variants() -> list[EvaluationEngine]:
    """One fresh instance of every backend (plus the composition)."""
    return [
        SerialEngine(),
        CachedEngine(),
        BatchedEngine(16),
        CachedEngine(BatchedEngine(8)),
    ]


class CountingObjective:
    """Deterministic objective that counts how often it is called."""

    def __init__(self, fn=analytic_objective):
        self.fn = fn
        self.calls = 0

    def __call__(self, config):
        self.calls += 1
        return self.fn(config)


class BatchRecordingObjective(CountingObjective):
    """Adds a batch protocol and records submitted chunk sizes."""

    def __init__(self, fn=analytic_objective):
        super().__init__(fn)
        self.chunk_sizes = []

    def evaluate_batch(self, configs):
        self.chunk_sizes.append(len(configs))
        return [self(c) for c in configs]


def random_configs(n, seed=0, space=SPACE):
    rng = np.random.default_rng(seed)
    return [space.random_config(rng) for _ in range(n)]


@pytest.fixture(scope="module")
def sim():
    return PlatformSimulator(seed=0)


@pytest.fixture(scope="module")
def ml(sim):
    data = generate_training_data(
        sim,
        sizes_mb=(1000.0, 3170.0),
        fractions=tuple(np.arange(10.0, 101.0, 10.0)),
    )
    return train_models(data).evaluator()


class TestSerialEngine:
    def test_matches_direct_calls(self):
        configs = random_configs(20)
        values = SerialEngine().evaluate_batch(analytic_objective, configs)
        assert values == [analytic_objective(c) for c in configs]

    def test_stats_account_batches_and_evaluations(self):
        engine = SerialEngine()
        engine.evaluate_batch(analytic_objective, random_configs(7))
        engine.evaluate(analytic_objective, random_configs(1)[0])
        assert engine.stats.batches == 2
        assert engine.stats.evaluations == 8
        assert engine.cache_hits == 0


class TestCachedEngine:
    def test_values_never_change(self):
        """Property: caching is invisible — randomized over many configs."""
        rng = np.random.default_rng(42)
        engine = CachedEngine()
        objective = CountingObjective()
        for trial in range(30):
            # Batches with deliberate repeats (sampling with replacement).
            pool = random_configs(12, seed=trial)
            batch = [pool[i] for i in rng.integers(0, len(pool), size=10)]
            values = engine.evaluate_batch(objective, batch)
            assert values == [analytic_objective(c) for c in batch]

    def test_repeat_configs_do_not_recompute(self):
        engine = CachedEngine()
        objective = CountingObjective()
        configs = random_configs(5)
        engine.evaluate_batch(objective, configs)
        assert objective.calls == 5
        engine.evaluate_batch(objective, configs)
        assert objective.calls == 5  # all hits
        assert engine.cache_hits == 5

    def test_intra_batch_duplicates_computed_once(self):
        engine = CachedEngine()
        objective = CountingObjective()
        config = random_configs(1)[0]
        values = engine.evaluate_batch(objective, [config, config, config])
        assert objective.calls == 1
        assert values[0] == values[1] == values[2]

    def test_cache_hits_monotone_nondecreasing(self):
        """Property: hit counts only grow, randomized batch sequence."""
        rng = np.random.default_rng(7)
        engine = CachedEngine()
        objective = CountingObjective()
        pool = random_configs(15, seed=3)
        previous = 0
        for _ in range(50):
            batch = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 8))]
            engine.evaluate_batch(objective, batch)
            assert engine.cache_hits >= previous
            previous = engine.cache_hits
        assert previous > 0  # small pool guarantees revisits

    def test_caches_are_per_objective(self):
        engine = CachedEngine()
        plus_one = CountingObjective(lambda c: analytic_objective(c) + 1.0)
        base = CountingObjective()
        config = random_configs(1)[0]
        a = engine.evaluate(base, config)
        b = engine.evaluate(plus_one, config)
        assert b == a + 1.0
        assert base.calls == 1 and plus_one.calls == 1

    def test_composes_with_batched_inner(self):
        inner = BatchedEngine(4)
        engine = CachedEngine(inner)
        objective = BatchRecordingObjective()
        configs = random_configs(10)
        values = engine.evaluate_batch(objective, configs + configs)
        assert values[:10] == values[10:]
        assert objective.calls == 10  # second half served from cache
        assert all(size <= 4 for size in objective.chunk_sizes)


class TestBatchedEngine:
    def test_respects_batch_size_chunking(self):
        objective = BatchRecordingObjective()
        engine = BatchedEngine(8)
        engine.evaluate_batch(objective, random_configs(21))
        assert objective.chunk_sizes == [8, 8, 5]

    def test_scalar_fallback_without_batch_protocol(self):
        objective = CountingObjective()  # no evaluate_batch attribute
        values = BatchedEngine(4).evaluate_batch(objective, random_configs(9))
        assert objective.calls == 9
        assert values == [analytic_objective(c) for c in random_configs(9)]

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            BatchedEngine(0)

    def test_ml_batch_is_bit_identical_to_serial(self, ml):
        configs = random_configs(64, seed=9)
        serial = SerialEngine().evaluate_batch(EvaluatorObjective(ml, 2435.0), configs)
        batched = BatchedEngine(16).evaluate_batch(EvaluatorObjective(ml, 2435.0), configs)
        assert serial == batched  # exact float equality, not approx


class TestMakeEngine:
    def test_all_names_construct(self):
        for name in ENGINE_NAMES:
            assert isinstance(make_engine(name), EvaluationEngine)

    def test_names_map_to_expected_backends(self):
        assert isinstance(make_engine("serial"), SerialEngine)
        assert isinstance(make_engine("cached"), CachedEngine)
        assert isinstance(make_engine("batched"), BatchedEngine)
        composed = make_engine("cached+batched", batch_size=32)
        assert isinstance(composed, CachedEngine)
        assert isinstance(composed.inner, BatchedEngine)
        assert composed.inner.batch_size == 32

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine("warp-drive")

    def test_case_insensitive(self):
        assert isinstance(make_engine("  Serial "), SerialEngine)


class TestBudgetTracker:
    def test_truncates_final_batch_to_budget(self):
        record = Recording(analytic_objective)
        track = BudgetTracker(record, 10, SerialEngine())
        sizes = []
        with pytest.raises(BudgetExhausted):
            while True:
                sizes.append(len(track.evaluate_many(random_configs(4))))
        assert sizes == [4, 4, 2]  # final batch truncated, never over budget
        assert track.result.evaluations == len(record.seen) == 10

    def test_raises_once_budget_is_spent(self):
        track = BudgetTracker(analytic_objective, 3, SerialEngine())
        track.evaluate_many(random_configs(3))
        with pytest.raises(BudgetExhausted):
            track.evaluate(random_configs(1)[0])

    def test_never_exceeds_budget_for_any_batch_shape(self):
        """The uneven-batch assertion: populations never overshoot."""
        for budget in (1, 5, 7, 23):
            for batch in (1, 2, 3, 10):
                track = BudgetTracker(analytic_objective, budget, SerialEngine())
                try:
                    while True:
                        track.evaluate_many(random_configs(batch))
                except BudgetExhausted:
                    pass
                assert track.result.evaluations == budget

    def test_searcher_batches_respect_uneven_budget(self):
        """GA population (24) does not divide 97; budget must hold exactly."""
        for engine in engine_variants():
            result = GeneticAlgorithm(SPACE, seed=0, engine=engine).run(
                analytic_objective, budget=97
            )
            assert result.evaluations == 97


class TestEngineDeterminism:
    """Acceptance: identical best configs and scored sequences across all backends."""

    @pytest.mark.parametrize("cls", ALL_SEARCHERS)
    def test_searcher_identical_across_engines(self, cls):
        reference_record = Recording(analytic_objective)
        reference = cls(SPACE, seed=5).run(reference_record, budget=120)
        for engine in engine_variants():
            record = Recording(analytic_objective)
            result = cls(SPACE, seed=5, engine=engine).run(record, budget=120)
            assert record.seen == expected_seen(reference_record, engine), engine.name
            assert result.best_config == reference.best_config, engine.name
            assert result.best_value == reference.best_value, engine.name

    @pytest.mark.parametrize("cls", ALL_SEARCHERS)
    def test_searcher_identical_on_ml_objective(self, cls, ml):
        reference_record = Recording(EvaluatorObjective(ml, 3170.0))
        reference = cls(SMALL_SPACE, seed=1).run(reference_record, budget=60)
        for engine in engine_variants():
            record = Recording(EvaluatorObjective(ml, 3170.0))
            result = cls(SMALL_SPACE, seed=1, engine=engine).run(record, budget=60)
            assert record.seen == expected_seen(reference_record, engine), engine.name
            assert result.best_config == reference.best_config, engine.name

    @pytest.mark.parametrize("method", ["SAM", "SAML", "EML"])
    def test_run_method_identical_across_engines(self, method, sim, ml):
        reference = run_method(
            method, SMALL_SPACE, sim, 3170.0, ml=ml, iterations=80, seed=0
        )
        for engine in engine_variants():
            result = run_method(
                method,
                SMALL_SPACE,
                sim,
                3170.0,
                ml=ml,
                iterations=80,
                seed=0,
                engine=engine,
            )
            assert result.config == reference.config, engine.name
            assert result.measured_time == reference.measured_time, engine.name
            assert result.search_energy.value == reference.search_energy.value

    def test_cached_engine_saves_annealing_work(self, ml):
        from repro.core import SimulatedAnnealing
        from repro.core.evaluators import EnergyObjective

        engine = CachedEngine()
        sa = SimulatedAnnealing(SMALL_SPACE, seed=0, engine=engine)
        sa.run(EnergyObjective(ml, 3170.0), iterations=300)
        # The small space has 44 configurations; 301 evaluations must hit.
        assert engine.cache_hits > 0
        assert engine.stats.evaluations == 301


class TestCacheLifetime:
    def test_dead_objectives_do_not_pin_their_caches(self):
        """A long-lived engine shared across runs must not leak caches."""
        import gc

        engine = CachedEngine()
        for trial in range(5):
            objective = CountingObjective()
            engine.evaluate_batch(objective, random_configs(10, seed=trial))
            del objective
        gc.collect()
        assert len(engine._caches) == 0

    def test_equal_configs_share_a_cache_entry(self):
        """Keys are the frozen configs themselves: field-complete equality."""
        engine = CachedEngine()
        objective = CountingObjective()
        config = random_configs(1)[0]
        clone = type(config)(
            config.host_threads,
            config.host_affinity,
            config.device_threads,
            config.device_affinity,
            config.host_fraction,
        )
        engine.evaluate(objective, config)
        engine.evaluate(objective, clone)
        assert objective.calls == 1
        assert engine.cache_hits == 1
