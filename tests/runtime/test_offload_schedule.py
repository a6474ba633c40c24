"""Offload execution (Eq. 2) and the adaptive rebalancer."""

import pytest

from repro.core.params import SystemConfiguration
from repro.machines import PlatformSimulator
from repro.runtime import (
    AdaptiveRebalancer,
    ExecutionOutcome,
    run_configuration,
)


def config(fraction=60.0):
    return SystemConfiguration(48, "scatter", 240, "balanced", fraction)


class TestExecutionOutcome:
    def test_total_is_max(self):
        assert ExecutionOutcome(1.0, 2.0).total == 2.0

    def test_imbalance(self):
        assert ExecutionOutcome(1.0, 1.0).imbalance == 0.0
        assert ExecutionOutcome(0.0, 2.0).imbalance == 1.0
        assert ExecutionOutcome(0.0, 0.0).imbalance == 0.0


class TestRunConfiguration:
    def test_zero_share_sides_not_launched(self):
        sim = PlatformSimulator(seed=0)
        host_only = run_configuration(sim, config(100.0), 1000.0)
        assert host_only.t_device == 0.0
        device_only = run_configuration(sim, config(0.0), 1000.0)
        assert device_only.t_host == 0.0

    def test_measured_run_counts_two_experiments(self):
        sim = PlatformSimulator(seed=0)
        run_configuration(sim, config(), 1000.0)
        assert sim.experiment_count == 2


class TestAdaptiveRebalancer:
    def test_converges_to_low_imbalance(self):
        sim = PlatformSimulator(seed=0, noise=False)
        reb = AdaptiveRebalancer(rounds=6)
        reb.run(sim, config(10.0), 3170.0)
        assert reb.history[-1].outcome.imbalance < 0.10

    def test_improves_on_bad_start(self):
        sim = PlatformSimulator(seed=0, noise=False)
        reb = AdaptiveRebalancer(rounds=6)
        reb.run(sim, config(5.0), 3170.0)
        assert reb.best_observed.outcome.total < reb.history[0].outcome.total

    def test_final_fraction_near_em_optimum(self):
        sim = PlatformSimulator(seed=0, noise=False)
        reb = AdaptiveRebalancer(rounds=8)
        final = reb.run(sim, config(10.0), 3170.0)
        assert 50.0 <= final.host_fraction <= 75.0

    def test_propose_next_handles_all_on_device(self):
        reb = AdaptiveRebalancer()
        f = reb.propose_next(0.0, ExecutionOutcome(0.0, 2.0))
        assert f > 0.0

    def test_propose_next_handles_all_on_host(self):
        reb = AdaptiveRebalancer()
        f = reb.propose_next(100.0, ExecutionOutcome(2.0, 0.0))
        assert f < 100.0

    def test_history_length_matches_rounds(self):
        sim = PlatformSimulator(seed=1)
        reb = AdaptiveRebalancer(rounds=4)
        reb.run(sim, config(50.0), 1000.0)
        assert len(reb.history) == 4

    def test_multi_device_config_respects_fixed_extra_shares(self):
        # The host fraction may only eat into the primary card's share:
        # extra-device shares are fixed at run time, so every adaptive
        # round must keep host + extras <= 100 (regression: this used
        # to raise "shares must sum to 100").
        from repro.core.params import DeviceSlot

        start = SystemConfiguration(
            48, "scatter", 240, "balanced", 10.0,
            (DeviceSlot(240, "balanced", 70.0),),
        )
        rb = AdaptiveRebalancer(rounds=4)
        final = rb.run(PlatformSimulator("dualphi", seed=0), start, 1000.0)
        assert final.host_fraction <= 30.0
        assert final.extra_devices[0].share == 70.0
        assert len(rb.history) == 4

    def test_sim_resolves_by_platform_name(self):
        rb = AdaptiveRebalancer(rounds=2)
        final = rb.run("emil", config(10.0), 500.0)
        assert 0.0 <= final.host_fraction <= 100.0

    def test_best_observed_before_run_raises(self):
        with pytest.raises(RuntimeError):
            AdaptiveRebalancer().best_observed

    @pytest.mark.parametrize(
        "kwargs",
        [{"rounds": 0}, {"damping": 0.0}, {"damping": 1.5},
         {"min_fraction": 50.0, "max_fraction": 50.0}],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveRebalancer(**kwargs)
