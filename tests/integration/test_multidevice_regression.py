"""Multi-device tuning end-to-end: dualphi/quadphi/mixedphi regressions.

The device-count generalization must (a) leave every single-device path
bit-identical (covered by the pre-existing golden regressions), (b) make
``dualphi`` tune as a genuine 2-device platform through enumeration,
SAM/SAML, campaigns, and the CLI, and (c) keep the separable columnar
walk equivalent to the faithful per-configuration walk on multi-device
spaces — including the heterogeneous ``mixedphi`` node, whose cards
carry different specs, calibrations, and noise streams.
"""

import numpy as np
import pytest

from repro.core import (
    MeasurementEvaluator,
    enumerate_best,
    enumerate_best_separable,
    tune_platform,
)
from repro.core.params import ParameterSpace, platform_space, share_simplex
from repro.machines import PlatformSimulator, get_platform
from repro.runtime import run_configuration
from repro.search import (
    AntColony,
    GeneticAlgorithm,
    HillClimbing,
    RandomSearch,
    TabuSearch,
)

SIZE_MB = 600.0


def sub_space(platform_name: str) -> ParameterSpace:
    """A small multi-device sub-space for faithful-walk comparisons."""
    space = platform_space(get_platform(platform_name))
    return ParameterSpace(
        host_threads=space.host_threads[::3],
        device_threads=space.device_grids[0][0][::4],
        extra_device_grids=[
            (threads[::4], affinities)
            for threads, affinities in space.device_grids[1:]
        ],
        shares=share_simplex(space.num_devices + 1, 25.0),
    )


@pytest.mark.parametrize("name", ["dualphi", "mixedphi"])
class TestSeparableEqualsFaithful:
    def test_same_optimum_energy(self, name):
        space = sub_space(name)
        faithful = enumerate_best(
            space, MeasurementEvaluator(PlatformSimulator(name, seed=0)), SIZE_MB
        )
        separable = enumerate_best_separable(
            space, PlatformSimulator(name, seed=0), SIZE_MB
        )
        assert separable.best_energy.value == faithful.best_energy.value
        assert separable.configurations == faithful.configurations == space.size()

    def test_separable_config_reaches_the_optimum(self, name):
        # The separable walk may pick a different tied combo on slack
        # parts; re-measuring its configuration must reproduce the
        # optimum exactly (noise is deterministic per configuration).
        space = sub_space(name)
        separable = enumerate_best_separable(
            space, PlatformSimulator(name, seed=0), SIZE_MB
        )
        remeasured = MeasurementEvaluator(PlatformSimulator(name, seed=0)).evaluate(
            separable.best_config, SIZE_MB
        )
        assert remeasured.value == separable.best_energy.value


class TestHeterogeneousCards:
    def test_cards_time_differently(self):
        sim = PlatformSimulator("mixedphi", noise=False, seed=0)
        t0 = sim.true_device_time(236, "balanced", 500.0)
        t1 = sim.true_device_time(236, "balanced", 500.0, device=1)
        assert t0 != t1  # 7120P vs 5110P: different spec and calibration

    def test_homogeneous_cards_share_the_model_but_not_noise(self):
        sim = PlatformSimulator("dualphi", seed=3)
        noise_free = PlatformSimulator("dualphi", noise=False, seed=3)
        assert noise_free.true_device_time(240, "balanced", 500.0) == (
            noise_free.true_device_time(240, "balanced", 500.0, device=1)
        )
        assert sim.measure_device(240, "balanced", 500.0) != (
            sim.measure_device(240, "balanced", 500.0, device=1)
        )


@pytest.mark.parametrize("name", ["dualphi", "quadphi", "mixedphi"])
class TestMultiDeviceTuneEndToEnd:
    def test_sam_tunes_a_multi_device_config(self, name):
        report = tune_platform(name, method="SAM", size_mb=SIZE_MB, iterations=120)
        spec = get_platform(name)
        assert report.config.num_devices == spec.num_devices
        assert report.config in platform_space(spec)
        assert report.quality_vs_em >= 1.0
        assert report.experiments < report.space_size

    def test_run_configuration_times_every_part(self, name):
        space = platform_space(get_platform(name))
        rng = np.random.default_rng(0)
        config = space.random_config(rng)
        outcome = run_configuration(PlatformSimulator(name, seed=0), config, SIZE_MB)
        assert len(outcome.t_devices) == config.num_devices
        assert outcome.total == max(outcome.t_host, *outcome.t_devices)


class TestDualphiGenuinelyTwoDevice:
    def test_multi_device_splits_beat_single_device_splits(self):
        # The EM optimum on dualphi must use both cards: with two fast
        # 7290s, parking a card (share 0) is strictly wasteful at the
        # paper's input scale.
        space = platform_space(get_platform("dualphi"))
        em = enumerate_best_separable(space, PlatformSimulator("dualphi", seed=0), 3170.0)
        shares = em.best_config.shares
        assert len(shares) == 3
        assert all(s > 0 for s in shares[1:])

    def test_saml_trains_and_tunes(self):
        report = tune_platform("dualphi", method="SAML", size_mb=SIZE_MB, iterations=120)
        assert report.config.num_devices == 2
        # ML search costs no experiments beyond the final measurement.
        assert report.experiments == 1

    def test_cli_tune_flag(self, capsys):
        from repro.cli import main

        assert main([
            "tune", "--method", "SAM", "--iterations", "60",
            "--platform", "dualphi",
        ]) == 0
        out = capsys.readouterr().out
        assert "on DualPhi" in out
        # A 2-device configuration prints three sides and a 3-part split.
        config_line = next(line for line in out.splitlines() if "configuration" in line)
        assert config_line.count("|") == 3


class TestMultiDeviceSearchers:
    SEARCHERS = (RandomSearch, HillClimbing, TabuSearch, GeneticAlgorithm, AntColony)

    @pytest.mark.parametrize("cls", SEARCHERS)
    def test_searcher_stays_in_the_multi_device_space(self, cls):
        space = sub_space("dualphi")
        evaluator = MeasurementEvaluator(PlatformSimulator("dualphi", seed=0))
        from repro.core import EvaluatorObjective

        result = cls(space, seed=0).run(EvaluatorObjective(evaluator, SIZE_MB), budget=40)
        assert result.evaluations == 40
        assert result.best_config in space
        assert result.best_config.num_devices == 2
