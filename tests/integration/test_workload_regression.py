"""Regression: the ``dna-paper`` workload is the pre-registry substrate.

The workload registry replaces the hard-wired ``DNA_SCAN`` calibration
with profiles *derived* from a :class:`~repro.dna.workloads.WorkloadSpec`.
Everything the paper's artifacts depend on — perf-model timings,
simulator noise draws, tuner suggestions — must come out bit-identical
through the ``dna-paper`` path on every registered platform, or the
historical results would silently drift.
"""

import pytest

from repro.core import tune_platform
from repro.core.params import platform_space, workload_space
from repro.dna.workloads import DNA_PAPER
from repro.machines import (
    DevicePerformanceModel,
    HostPerformanceModel,
    PlatformSimulator,
    get_platform,
    platform_names,
)
from repro.machines.perfmodel import DNA_SCAN

#: A probe grid exercising spawn, SMT occupancy, and roofline regimes.
HOST_PROBES = [(2, "none", 100.0), (12, "scatter", 1000.0), (48, "compact", 3170.0)]
DEVICE_PROBES = [(8, "balanced", 100.0), (120, "scatter", 1000.0), (240, "compact", 3170.0)]


@pytest.mark.parametrize("name", platform_names())
class TestPerfModelBitIdentity:
    def test_host_times_identical(self, name):
        spec = get_platform(name)
        legacy = HostPerformanceModel(spec, DNA_SCAN)
        registry = HostPerformanceModel(spec, DNA_PAPER.profile())
        for threads, affinity, mb in HOST_PROBES:
            assert legacy.time(threads, affinity, mb) == registry.time(
                threads, affinity, mb
            )

    def test_device_times_identical(self, name):
        spec = get_platform(name)
        if not spec.has_device:
            pytest.skip("no accelerator installed")
        legacy = DevicePerformanceModel(spec, DNA_SCAN)
        registry = DevicePerformanceModel(spec, DNA_PAPER.profile())
        for threads, affinity, mb in DEVICE_PROBES:
            threads = min(threads, spec.max_device_threads)
            assert legacy.time(threads, affinity, mb) == registry.time(
                threads, affinity, mb
            )


@pytest.mark.parametrize("name", platform_names())
@pytest.mark.parametrize("seed", [0, 7])
class TestSimulatorBitIdentity:
    def test_noisy_draws_identical(self, name, seed):
        spec = get_platform(name)
        legacy = PlatformSimulator(spec, DNA_SCAN, seed=seed)
        registry = PlatformSimulator(spec, "dna-paper", seed=seed)
        for threads, affinity, mb in HOST_PROBES:
            assert legacy.measure_host(threads, affinity, mb) == registry.measure_host(
                threads, affinity, mb
            )
        if spec.has_device:
            for threads, affinity, mb in DEVICE_PROBES:
                threads = min(threads, spec.max_device_threads)
                assert legacy.measure_device(
                    threads, affinity, mb
                ) == registry.measure_device(threads, affinity, mb)


@pytest.mark.parametrize("name", platform_names())
class TestSpaceBitIdentity:
    def test_scenario_space_equals_platform_space(self, name):
        spec = get_platform(name)
        fitted = workload_space("dna-paper", spec)
        historical = platform_space(spec)
        assert fitted.host_threads == historical.host_threads
        assert fitted.device_threads == historical.device_threads
        assert fitted.fractions == historical.fractions
        assert fitted.max_fraction_steps == historical.max_fraction_steps


class TestTunerBitIdentity:
    """``tune_platform``'s default raw profile and the named ``dna-paper``
    workload tune to the identical report."""

    @pytest.mark.parametrize("platform, seed", [("emil", 0), ("slowlink", 3)])
    def test_sam_report_identical(self, platform, seed):
        kwargs = {"method": "SAM", "size_mb": 600.0, "iterations": 150, "seed": seed}
        legacy = tune_platform(platform, workload=DNA_SCAN, **kwargs)
        named = tune_platform(platform, workload="dna-paper", **kwargs)
        assert named == legacy

    def test_saml_report_identical_on_emil(self):
        kwargs = {"method": "SAML", "size_mb": 600.0, "iterations": 150}
        legacy = tune_platform("emil", workload=DNA_SCAN, **kwargs)
        named = tune_platform("emil", workload="dna-paper", **kwargs)
        assert named == legacy
