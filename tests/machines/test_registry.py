"""Platform registry and performance-profile parameterization."""

import pytest

from repro.machines import (
    DEFAULT_DEVICE_PERF,
    DEFAULT_HOST_PERF,
    DUALPHI,
    EMIL,
    FATHOST,
    MANYCORE,
    SLOWLINK,
    HostPerformanceModel,
    PerfProfile,
    PlatformSimulator,
    PlatformSpec,
    all_platforms,
    get_platform,
    platform_names,
    register_platform,
)
from repro.machines.memory import DEVICE_SCAN_EFFICIENCY, HOST_SCAN_EFFICIENCY
from repro.machines.perfmodel import (
    DEVICE_HT_YIELD,
    DEVICE_SPAWN_BASE_S,
    HOST_AFFINITY_RATE,
    HOST_HT_YIELD,
    HOST_SPAWN_BASE_S,
)
from repro.machines.simulator import (
    DEVICE_NOISE_SIGMA,
    HOST_NOISE_SIGMA,
    NONE_AFFINITY_NOISE_SCALE,
)


class TestRegistry:
    def test_fleet_has_at_least_four_platforms(self):
        assert len(platform_names()) >= 4

    def test_emil_is_registered_and_default(self):
        assert get_platform("emil") is EMIL

    def test_lookup_is_case_insensitive_and_accepts_display_names(self):
        assert get_platform("FatHost") is FATHOST
        assert get_platform("FATHOST") is FATHOST
        assert get_platform("DualPhi") is DUALPHI

    def test_spec_passthrough(self):
        assert get_platform(SLOWLINK) is SLOWLINK

    def test_unknown_platform_lists_the_registry(self):
        with pytest.raises(ValueError, match="emil.*fathost"):
            get_platform("cray-1")

    def test_reregistering_same_spec_is_idempotent(self):
        assert register_platform(EMIL, key="emil") is EMIL

    def test_conflicting_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_platform(FATHOST, key="emil")

    def test_all_platforms_matches_names(self):
        assert len(all_platforms()) == len(platform_names())

    def test_fleet_covers_the_issue_scenarios(self):
        # fat host / weak device, dual accelerator, many-core no-device.
        assert FATHOST.host_hardware_threads > EMIL.host_hardware_threads
        assert FATHOST.device_perf.rate_scale < 1.0
        assert DUALPHI.num_devices == 2
        assert not MANYCORE.has_device
        assert MANYCORE.max_device_threads == 0
        assert SLOWLINK.interconnect.effective_bandwidth_gbs < (
            EMIL.interconnect.effective_bandwidth_gbs
        )


class TestPerfProfile:
    def test_default_profiles_match_emil_module_constants(self):
        # The historical module-level calibration and the spec-carried
        # profiles must agree, or EMIL results would silently drift.
        assert DEFAULT_HOST_PERF.ht_yield_table == HOST_HT_YIELD
        assert DEFAULT_DEVICE_PERF.ht_yield_table == DEVICE_HT_YIELD
        assert DEFAULT_HOST_PERF.spawn_base_s == HOST_SPAWN_BASE_S
        assert DEFAULT_DEVICE_PERF.spawn_base_s == DEVICE_SPAWN_BASE_S
        assert DEFAULT_HOST_PERF.affinity_rates == HOST_AFFINITY_RATE
        assert DEFAULT_HOST_PERF.scan_efficiency == HOST_SCAN_EFFICIENCY
        assert DEFAULT_DEVICE_PERF.scan_efficiency == DEVICE_SCAN_EFFICIENCY
        assert DEFAULT_HOST_PERF.noise_sigma == HOST_NOISE_SIGMA
        assert DEFAULT_DEVICE_PERF.noise_sigma == DEVICE_NOISE_SIGMA
        assert DEFAULT_HOST_PERF.noise_scales == {"none": NONE_AFFINITY_NOISE_SCALE}

    def test_emil_carries_the_default_profiles(self):
        assert EMIL.host_perf == DEFAULT_HOST_PERF
        assert EMIL.device_perf == DEFAULT_DEVICE_PERF

    def test_rate_scale_speeds_up_the_model(self):
        fast = PlatformSpec(
            name="fast", host_perf=PerfProfile(
                rate_scale=2.0,
                ht_yield=DEFAULT_HOST_PERF.ht_yield,
                spawn_base_s=DEFAULT_HOST_PERF.spawn_base_s,
                spawn_per_log2_s=DEFAULT_HOST_PERF.spawn_per_log2_s,
                affinity_rate=DEFAULT_HOST_PERF.affinity_rate,
                scan_efficiency=DEFAULT_HOST_PERF.scan_efficiency,
                noise_sigma=DEFAULT_HOST_PERF.noise_sigma,
                noise_scale=DEFAULT_HOST_PERF.noise_scale,
            )
        )
        base = HostPerformanceModel(EMIL).time(12, "scatter", 1000.0)
        boosted = HostPerformanceModel(fast).time(12, "scatter", 1000.0)
        assert boosted < base

    def test_noise_sigma_flows_into_the_simulator(self):
        quiet = PlatformSpec(
            name="quiet",
            host_perf=PerfProfile(
                rate_scale=1.0, ht_yield=(1.0, 1.5), scan_efficiency=0.0444,
                noise_sigma=0.0,
            ),
        )
        sim = PlatformSimulator(quiet, seed=3)
        noise_free = PlatformSimulator(quiet, noise=False, seed=3)
        assert sim.measure_host(12, "scatter", 500.0) == pytest.approx(
            noise_free.measure_host(12, "scatter", 500.0)
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="rate_scale"):
            PerfProfile(rate_scale=0.0)
        with pytest.raises(ValueError, match="ht_yield"):
            PerfProfile(ht_yield=())
        with pytest.raises(ValueError, match="scan_efficiency"):
            PerfProfile(scan_efficiency=1.5)
        with pytest.raises(ValueError, match="noise_sigma"):
            PerfProfile(noise_sigma=-0.1)

    def test_profiles_are_hashable_and_frozen(self):
        assert hash(DEFAULT_HOST_PERF) is not None
        with pytest.raises(AttributeError):
            DEFAULT_HOST_PERF.rate_scale = 2.0  # type: ignore[misc]


class TestFleetSimulation:
    """Every registered platform must be simulatable end-to-end."""

    @pytest.mark.parametrize("name", platform_names())
    def test_host_measurement_works_on_every_platform(self, name):
        spec = get_platform(name)
        sim = PlatformSimulator(spec, seed=0)
        t = sim.measure_host(spec.host_hardware_threads, "scatter", 100.0)
        assert t > 0

    @pytest.mark.parametrize(
        "name", [n for n in platform_names() if get_platform(n).has_device]
    )
    def test_device_measurement_works_on_device_platforms(self, name):
        spec = get_platform(name)
        sim = PlatformSimulator(spec, seed=0)
        t = sim.measure_device(spec.max_device_threads, "balanced", 100.0)
        assert t > 0

    def test_platforms_produce_distinct_landscapes(self):
        # The same configuration must time differently across the fleet,
        # otherwise the campaign would be comparing clones.
        times = set()
        for name in platform_names():
            spec = get_platform(name)
            sim = PlatformSimulator(spec, noise=False, seed=0)
            times.add(round(sim.true_host_time(2, "scatter", 1000.0), 6))
        assert len(times) >= 3
