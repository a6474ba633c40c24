"""Cross-module integration: the full SAML pipeline, workload coupling,
and the engine/runtime boundary.
"""

import numpy as np
import pytest

from repro.core import (
    MeasurementEvaluator,
    ParameterSpace,
    run_em,
    run_saml,
    tune_platform,
)
from repro.core.training import generate_training_data, train_models
from repro.dna import DNASequenceAnalysis, GENOMES, genome_sample
from repro.machines import PlatformSimulator
from repro.runtime import run_configuration

SPACE = ParameterSpace(
    host_threads=(12, 24, 48),
    host_affinities=("scatter", "compact"),
    device_threads=(60, 120, 240),
    device_affinities=("balanced",),
    fractions=tuple(float(f) for f in range(0, 101, 5)),
)


@pytest.fixture(scope="module")
def sim():
    return PlatformSimulator(seed=0)


@pytest.fixture(scope="module")
def ml(sim):
    data = generate_training_data(
        sim,
        sizes_mb=(1000.0, 2000.0, 3170.0),
        fractions=tuple(np.arange(5.0, 101.0, 5.0)),
    )
    return train_models(data).evaluator()


class TestFullPipeline:
    def test_saml_within_15_percent_of_em(self, sim, ml):
        em = run_em(SPACE, sim, 3170.0)
        gaps = []
        for seed in range(3):
            saml = run_saml(SPACE, ml, sim, 3170.0, iterations=800, seed=seed)
            gaps.append(
                abs(saml.measured_time - em.measured_time) / em.measured_time
            )
        assert np.mean(gaps) < 0.15

    def test_saml_search_is_experiment_free(self, sim, ml):
        saml = run_saml(SPACE, ml, sim, 3170.0, iterations=200, seed=0)
        assert saml.search_evaluations == 201  # budget + initial solution
        assert saml.experiments == 1  # only the final suggestion is measured

    def test_workload_profile_couples_dna_to_tuner(self):
        """The automaton's table footprint flows into the platform model."""
        app = DNASequenceAnalysis()
        profile = app.workload_profile()
        report = tune_platform(
            "emil", method="SAM", size_mb=3170.0, iterations=300, workload=profile
        )
        assert report.measured_time > 0
        assert report.speedup_vs_host_only > 1.0

    def test_configuration_executes_on_runtime_and_engine(self, sim):
        """The tuned configuration drives both the simulated runtime and
        the real matching engine, consistently."""
        em = run_em(SPACE, sim, 3170.0)
        cfg = em.config

        # Simulated execution (Eq. 2).
        outcome = run_configuration(sim, cfg, 3170.0)
        ev = MeasurementEvaluator(sim)
        assert outcome.total == pytest.approx(ev.evaluate(cfg, 3170.0).value)

        # Real engine execution of the same split on a scaled sample.
        app = DNASequenceAnalysis()
        codes = genome_sample(GENOMES["human"], n_bases=50_000)
        split = app.analyze_split(
            codes,
            cfg.host_fraction,
            host_workers=min(4, cfg.host_threads),
            device_workers=4,
        )
        whole = app.analyze(codes)
        assert split.total == whole.total


class TestPaperShapeClaims:
    """The qualitative claims the reproduction must preserve (DESIGN.md)."""

    def test_em_optimum_is_a_genuine_split_for_large_inputs(self, sim):
        em = run_em(SPACE, sim, 3170.0)
        assert 40.0 <= em.config.host_fraction <= 80.0

    def test_em_prefers_many_threads_on_both_sides(self, sim):
        em = run_em(SPACE, sim, 3170.0)
        assert em.config.host_threads == 48
        assert em.config.device_threads == 240

    def test_speedup_bands_match_tables_8_and_9(self, sim):
        em = run_em(SPACE, sim, 3170.0)
        host_only = sim.measure_host(48, "scatter", 3170.0)
        device_only = sim.measure_device(240, "balanced", 3170.0)
        assert 1.3 < host_only / em.measured_time < 2.2
        assert 1.8 < device_only / em.measured_time < 2.7

    def test_noise_does_not_flip_the_winner(self):
        """The EM winner is a split for every noise seed (robust shape)."""
        for seed in range(3):
            sim = PlatformSimulator(seed=seed)
            em = run_em(SPACE, sim, 3170.0)
            assert 0.0 < em.config.host_fraction < 100.0
