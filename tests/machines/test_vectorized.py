"""Scalar-vs-vectorized equivalence of the analytic core.

The columnar fast path (``times_batch`` / ``measure_*_columns`` /
``enumerate_best_separable`` / columnar training grids) must be
bit-identical to per-item scalar calls on every registered platform and
workload — same times, same noise draws, same best configurations, same
tie-breaks, same experiment accounting — including on the deviceless
``manycore`` platform, whose collapsed space must never touch the
device side.  The per-key noise stream itself is pinned by golden
values so the documented seed-per-key scheme cannot drift silently.
"""

import numpy as np
import pytest

from repro.core import (
    ConfigTable,
    MeasurementEvaluator,
    enumerate_best,
    enumerate_best_separable,
    generate_training_data,
    make_engine,
)
from repro.core.params import ParameterSpace, workload_space
from repro.dna.workloads import workload_names
from repro.machines import (
    DevicePerformanceModel,
    HostPerformanceModel,
    PlatformSimulator,
    get_platform,
    platform_names,
)
from repro.machines.affinity import DEVICE_AFFINITIES, HOST_AFFINITIES
from repro.machines.simulator import _gaussian_batch, _gaussian_scalar

PLATFORMS = tuple(platform_names())
WORKLOADS = tuple(workload_names())
#: A compact but regime-spanning scenario sample for the slowest checks.
SCENARIOS = [
    ("emil", "dna-paper"),
    ("fathost", "dense-motif"),
    ("dualphi", "short-read"),
    ("slowlink", "long-genome"),
    ("manycore", "dna-paper"),
]


def small_space(platform_name: str, workload: str) -> ParameterSpace:
    """A sub-space small enough for faithful per-config walks."""
    space = workload_space(workload, get_platform(platform_name))
    return ParameterSpace(
        host_threads=space.host_threads[::2],
        host_affinities=space.host_affinities,
        device_threads=space.device_threads[::3],
        device_affinities=space.device_affinities,
        fractions=space.fractions[::5],
        max_fraction_steps=space.max_fraction_steps,
    )


class TestNoiseScheme:
    #: Golden draws of the documented seed-per-key scheme: (seed,
    #: side_code, threads, affinity_code, mb) -> Irwin-Hall(4) deviate.
    GOLDEN = {
        (0, 0, 2, 0, 100.0): 0.10383137252415812,
        (0, 1, 240, 2, 3170.0): -1.7082467702589015,
        (7, 0, 48, 1, 79.25): -0.3785656505041293,
        (123, 1, 60, 0, 0.0): 0.2030113449854787,
    }

    def test_golden_draws_pinned(self):
        for key, want in self.GOLDEN.items():
            assert _gaussian_scalar(*key) == want

    def test_scalar_and_batch_hashes_identical(self):
        rng = np.random.default_rng(3)
        n = 4096
        threads = rng.integers(1, 400, n)
        codes = rng.integers(0, 3, n)
        mb = rng.uniform(0.0, 40000.0, n)
        for seed in (0, 7, -1, 2**63):
            for side in (0, 1):
                batch = _gaussian_batch(seed, side, threads, codes, mb)
                scalar = np.array(
                    [
                        _gaussian_scalar(seed, side, int(t), int(c), float(m))
                        for t, c, m in zip(threads, codes, mb)
                    ]
                )
                assert np.array_equal(batch, scalar)

    def test_draws_are_standardized_and_bounded(self):
        rng = np.random.default_rng(4)
        z = _gaussian_batch(
            0, 0, rng.integers(1, 64, 50000), rng.integers(0, 3, 50000),
            rng.uniform(0, 5000, 50000),
        )
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02
        assert np.all(np.abs(z) <= 2 * 1.7320508075688772)

    def test_high_sigma_profiles_stay_positive(self):
        """Factors are floored, so even extreme custom profiles cannot
        produce non-positive measured times — and the scalar and batch
        paths agree at the clamp."""
        from dataclasses import replace

        from repro.machines import EMIL

        loud = replace(EMIL, host_perf=replace(EMIL.host_perf, noise_sigma=0.5))
        sim_scalar = PlatformSimulator(loud, seed=0)
        sim_batch = PlatformSimulator(loud, seed=0)
        mb = np.linspace(1.0, 4000.0, 2000)
        threads = np.full(2000, 24)
        codes = np.ones(2000, dtype=np.int64)
        batch = sim_batch.measure_host_columns(threads, codes, mb)
        assert np.all(batch > 0)
        scalar = [sim_scalar.measure_host(24, "scatter", float(m)) for m in mb]
        assert batch.tolist() == scalar

    def test_golden_measurements_pinned(self):
        sim = PlatformSimulator(seed=0)
        assert sim.measure_host(24, "scatter", 1000.0) == 0.3317231658206994
        assert sim.measure_device(120, "balanced", 1000.0) == 0.5376163976565234
        other = PlatformSimulator("slowlink", "dense-motif", seed=7)
        assert other.measure_host(12, "none", 500.0) == 0.5042601861636687


@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("workload", ("dna-paper", "dense-motif"))
class TestPerfModelBatch:
    def probes(self, space, rng, n=256):
        ht = np.asarray(space.host_threads)[rng.integers(0, len(space.host_threads), n)]
        ha = rng.integers(0, len(HOST_AFFINITIES), n)
        dt = np.asarray(space.device_threads)[
            rng.integers(0, len(space.device_threads), n)
        ]
        da = rng.integers(0, len(DEVICE_AFFINITIES), n)
        mb = rng.uniform(0.0, 4000.0, n)
        mb[rng.random(n) < 0.1] = 0.0
        return ht, ha, dt, da, mb

    def test_times_batch_bit_identical_to_scalar(self, platform, workload):
        spec = get_platform(platform)
        sim = PlatformSimulator(spec, workload, seed=0)
        space = workload_space(workload, spec)
        rng = np.random.default_rng(11)
        ht, ha, dt, da, mb = self.probes(space, rng)
        host = HostPerformanceModel(spec, sim.workload)
        batch = host.times_batch(ht, ha, mb)
        scalar = [
            host.time(int(t), HOST_AFFINITIES[int(c)], float(m))
            for t, c, m in zip(ht, ha, mb)
        ]
        assert batch.tolist() == scalar
        if spec.has_device:
            device = DevicePerformanceModel(spec, sim.workload)
            batch = device.times_batch(dt, da, mb)
            scalar = [
                device.time(int(t), DEVICE_AFFINITIES[int(c)], float(m))
                for t, c, m in zip(dt, da, mb)
            ]
            assert batch.tolist() == scalar

    def test_simulator_columns_bit_identical_to_scalar(self, platform, workload):
        spec = get_platform(platform)
        space = workload_space(workload, spec)
        rng = np.random.default_rng(12)
        ht, ha, dt, da, mb = self.probes(space, rng, n=128)
        sim_scalar = PlatformSimulator(spec, workload, seed=5)
        sim_batch = PlatformSimulator(spec, workload, seed=5)
        want = [
            sim_scalar.measure_host(int(t), HOST_AFFINITIES[int(c)], float(m))
            for t, c, m in zip(ht, ha, mb)
        ]
        got = sim_batch.measure_host_columns(ht, ha, mb)
        assert got.tolist() == want
        assert sim_batch.experiment_count == sim_scalar.experiment_count
        assert sim_batch.log == sim_scalar.log


class TestRateComposition:
    """The array rate path must equal the pre-vectorization formula."""

    @pytest.mark.parametrize("platform", PLATFORMS)
    def test_host_rates_match_reference_formula(self, platform):
        from repro.machines.cache import host_locality_factor
        from repro.machines.memory import combine_rates, host_scan_roofline_mbs
        from repro.machines.perfmodel import _aggregate_linear_rate

        spec = get_platform(platform)
        model = HostPerformanceModel(spec)
        space = workload_space("dna-paper", spec)
        for threads in space.host_threads:
            for affinity in HOST_AFFINITIES:
                stats = model.placement(threads, affinity)
                linear = _aggregate_linear_rate(
                    stats,
                    model.workload.host_rate_mbs * model.perf.rate_scale,
                    model.perf.ht_yield_table,
                )
                linear *= host_locality_factor(
                    model.workload.table_kb, spec.cpu
                ) * model.perf.affinity_rates.get(affinity, 1.0)
                roofline = host_scan_roofline_mbs(
                    spec,
                    stats,
                    efficiency=model.perf.scan_efficiency,
                    workload_scale=model.workload.scan_efficiency_scale,
                )
                assert model.rate_mbs(threads, affinity) == combine_rates(
                    linear, roofline
                )


class TestConfigTable:

    def test_round_trip_through_configs(self):
        space = small_space("fathost", "short-read")
        rng = np.random.default_rng(0)
        configs = [space.random_config(rng) for _ in range(64)]
        table = ConfigTable.from_configs(configs)
        assert table.configs() == configs
        np.testing.assert_array_equal(
            table.host_mb(1000.0),
            [1000.0 * c.host_fraction / 100.0 for c in configs],
        )

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            ConfigTable([2, 4], [0, 0], [2], [0], [50.0, 50.0])


@pytest.mark.parametrize("platform,workload", SCENARIOS)
class TestEnumerationEquivalence:
    def test_separable_matches_faithful_walk(self, platform, workload):
        space = small_space(platform, workload)
        size = 900.0
        walk = enumerate_best(
            space,
            MeasurementEvaluator(PlatformSimulator(platform, workload, seed=2)),
            size,
        )
        fast = enumerate_best_separable(
            space, PlatformSimulator(platform, workload, seed=2), size
        )
        assert fast.best_config == walk.best_config
        assert fast.best_energy == walk.best_energy
        assert fast.configurations == walk.configurations == space.size()

    def test_training_grids_bit_identical(self, platform, workload):
        spec = get_platform(platform)
        if not spec.has_device:
            pytest.skip("deviceless platforms cannot train a device model")
        space = workload_space(workload, spec)
        kwargs = dict(
            sizes_mb=(900.0, 450.0),
            fractions=(25.0, 50.0, 75.0),
            host_threads=space.host_threads,
            device_threads=space.device_threads,
        )
        columnar = generate_training_data(
            PlatformSimulator(platform, workload, seed=3), **kwargs
        )
        reference = generate_training_data(
            PlatformSimulator(platform, workload, seed=3), **kwargs
        )
        # Scalar reference: re-measure the same grid per item.
        sim = PlatformSimulator(platform, workload, seed=3)
        host_y = [
            sim.measure_host(int(row[0]), HOST_AFFINITIES[int(np.argmax(row[1:-1]))], row[-1])
            for row in columnar.host.X
        ]
        device_y = [
            sim.measure_device(
                int(row[0]), DEVICE_AFFINITIES[int(np.argmax(row[1:-1]))], row[-1]
            )
            for row in columnar.device.X
        ]
        assert columnar.host.y.tolist() == host_y
        assert columnar.device.y.tolist() == device_y
        np.testing.assert_array_equal(columnar.host.X, reference.host.X)
        np.testing.assert_array_equal(columnar.device.y, reference.device.y)


@pytest.mark.parametrize("engine_name", ["serial", "cached", "batched", "cached+batched"])
class TestEngineParametrizedEnumeration:
    """The faithful walk is engine-independent on the vectorized evaluator."""

    def test_enumerate_best_identical_across_engines(self, engine_name):
        space = small_space("emil", "dna-paper")
        reference = enumerate_best(
            space, MeasurementEvaluator(PlatformSimulator(seed=4)), 700.0
        )
        engine = make_engine(engine_name, batch_size=128)
        result = enumerate_best(
            space,
            MeasurementEvaluator(PlatformSimulator(seed=4)),
            700.0,
            engine=engine,
        )
        assert result.best_config == reference.best_config
        assert result.best_energy == reference.best_energy
        assert result.configurations == reference.configurations


class TestDevicelessGuard:
    """The ``manycore`` platform has no accelerator: the collapsed space
    pins work to the host and the vectorized paths must never touch the
    device side."""

    def test_space_walks_never_measure_the_device(self):
        space = workload_space("dna-paper", get_platform("manycore"))
        assert space.fractions == (100.0,)
        sim = PlatformSimulator("manycore", seed=0)
        result = enumerate_best_separable(space, sim, 800.0)
        assert result.best_config.host_fraction == 100.0
        assert all(m.side == "host" for m in sim.log)
        assert sim.experiment_count == len(space.host_threads) * len(
            space.host_affinities
        )

    def test_batched_evaluator_never_measures_the_device(self):
        space = workload_space("dna-paper", get_platform("manycore"))
        sim = PlatformSimulator("manycore", seed=0)
        evaluator = MeasurementEvaluator(sim)
        energies = evaluator.evaluate_batch(list(space.iter_configs()), 800.0)
        assert all(e.t_device == 0.0 for e in energies)
        assert all(m.side == "host" for m in sim.log)

    def test_deviceless_results_match_scalar_path(self):
        space = workload_space("dna-paper", get_platform("manycore"))
        configs = list(space.iter_configs())
        scalar = [
            MeasurementEvaluator(PlatformSimulator("manycore", seed=1)).evaluate(
                c, 800.0
            )
            for c in configs
        ]
        batch = MeasurementEvaluator(
            PlatformSimulator("manycore", seed=1)
        ).evaluate_batch(configs, 800.0)
        assert batch == scalar
