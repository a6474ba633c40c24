"""Multi-accelerator execution (1-8 devices) on core configurations."""

import pytest

from repro.core.params import DeviceSlot, SystemConfiguration
from repro.machines import EMIL, PlatformSimulator
from repro.runtime import proportional_shares, run_configuration


def two_device_config(host_share=40.0, second_share=None):
    each = (100.0 - host_share) / 2
    return SystemConfiguration(
        48,
        "scatter",
        240,
        "balanced",
        host_share,
        extra_devices=(
            DeviceSlot(240, "balanced", each if second_share is None else second_share),
        ),
    )


def sim_with(n: int) -> PlatformSimulator:
    return PlatformSimulator(EMIL.with_devices(n), seed=0)


class TestConfiguration:
    def test_shares_cannot_exceed_100(self):
        with pytest.raises(ValueError, match="sum to 100"):
            two_device_config(host_share=50.0, second_share=60.0)

    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            DeviceSlot(0, "balanced", 10.0)
        with pytest.raises(ValueError):
            DeviceSlot(60, "balanced", 101.0)


class TestRuntime:
    def test_outcome_total_is_max_over_all_parts(self):
        out = run_configuration(sim_with(2), two_device_config(), 3170.0)
        assert out.total == max(out.t_host, *out.t_devices)
        assert len(out.t_devices) == 2

    def test_device_count_mismatch_rejected(self):
        single = SystemConfiguration(48, "scatter", 240, "balanced", 60.0)
        with pytest.raises(ValueError, match="devices"):
            run_configuration(sim_with(2), single, 1000.0)
        with pytest.raises(ValueError, match="devices"):
            run_configuration(sim_with(1), two_device_config(), 1000.0)

    def test_zero_share_device_is_idle(self):
        cfg = two_device_config(host_share=60.0, second_share=0.0)
        out = run_configuration(sim_with(2), cfg, 1000.0)
        assert out.t_devices[1] == 0.0

    def test_proportional_shares_sum_to_100(self):
        cfg = proportional_shares(sim_with(3), 48, "scatter", 240, "balanced", 3170.0)
        assert cfg.num_devices == 3
        assert sum(cfg.shares) == pytest.approx(100.0)

    def test_proportional_shares_need_a_device(self):
        with pytest.raises(ValueError, match="no accelerator"):
            proportional_shares("manycore", 48, "scatter", 240, "balanced", 3170.0)

    def test_more_devices_reduce_execution_time(self):
        times = []
        for n in (1, 2, 4):
            sim = sim_with(n)
            cfg = proportional_shares(sim, 48, "scatter", 240, "balanced", 3170.0)
            times.append(run_configuration(sim, cfg, 3170.0).total)
        assert times[0] > times[1] > times[2]

    def test_proportional_beats_naive_equal_split(self):
        sim = sim_with(2)
        prop = proportional_shares(sim, 48, "scatter", 240, "balanced", 3170.0)
        naive = two_device_config(host_share=100.0 / 3)
        assert (
            run_configuration(sim, prop, 3170.0).total
            < run_configuration(sim, naive, 3170.0).total
        )
