"""Fig. 9 / Tables VI-IX iteration study (reduced budgets for speed)."""

import pytest

from repro.experiments import run_iteration_study, study_genome
from repro.experiments.iterations import check_n_seeds, experiments_saved_fraction


@pytest.fixture(scope="module")
def study(ctx):
    return run_iteration_study(
        ctx, genomes=("cat", "dog"), checkpoints=(100, 400), n_seeds=2
    )


class TestGenomeStudy:
    def test_em_is_best_or_equal(self, ctx):
        g = study_genome(ctx, "dog", checkpoints=(300,), n_seeds=1)
        assert g.em_time <= g.saml_times[300] * 1.001
        assert g.em_time <= g.host_only
        assert g.em_time <= g.device_only

    def test_metrics_definitions(self, study):
        g = study.genomes["cat"]
        b = study.checkpoints[0]
        assert g.percent_difference(b) == pytest.approx(
            100.0 * abs(g.em_time - g.saml_times[b]) / g.em_time
        )
        assert g.absolute_difference(b) == pytest.approx(
            abs(g.em_time - g.saml_times[b])
        )
        assert g.speedup_vs_host(b) == pytest.approx(g.host_only / g.saml_times[b])
        assert g.speedup_vs_device(b) == pytest.approx(g.device_only / g.saml_times[b])

    def test_result5_heterogeneous_beats_both_baselines(self, study):
        """Result 5: the tuned split shares work efficiently."""
        for g in study.genomes.values():
            assert g.em_speedup_vs_host > 1.3
            assert g.em_speedup_vs_device > 1.8


class TestTables:
    def test_table6_has_average_row(self, study):
        rows = study.table6()
        assert rows[-1][0] == "average"
        assert len(rows) == len(study.genomes) + 1

    def test_table7_absolute_values_consistent_with_table6(self, study):
        t6 = study.table6()
        t7 = study.table7()
        g = study.genomes["cat"]
        # pct = 100 * abs / em for the first checkpoint.
        assert t6[0][1] == pytest.approx(100.0 * t7[0][1] / g.em_time, abs=0.15)

    def test_table8_9_include_em_column(self, study):
        for rows in (study.table8(), study.table9()):
            assert len(rows[0]) == 1 + len(study.checkpoints) + 1

    def test_fig9_series_shapes(self, study):
        series = study.fig9_series("cat")
        assert set(series) == {"SAML", "SAM", "EM", "EML"}
        for vals in series.values():
            assert len(vals) == len(study.checkpoints)
        # EM line is constant.
        assert len(set(series["EM"])) == 1

    def test_more_iterations_do_not_hurt_much(self, study):
        """Convergence shape: the 400-iteration average is no worse than
        ~the 100-iteration average (annealing is stochastic; allow 5%)."""
        import numpy as np

        a = np.mean([g.saml_times[100] for g in study.genomes.values()])
        b = np.mean([g.saml_times[400] for g in study.genomes.values()])
        assert b <= a * 1.05


class TestHeadlineClaim:
    def test_result3_five_percent_of_experiments(self, ctx):
        """1000 SA iterations ~ 5% of the 19926-experiment enumeration."""
        frac = experiments_saved_fraction(ctx, 1000)
        assert frac == pytest.approx(1000 / 19926)
        assert 0.04 < frac < 0.06


class TestSeedCount:
    @pytest.mark.parametrize("n_seeds", [1, 5])
    def test_check_n_seeds_accepts_positive_counts(self, n_seeds):
        check_n_seeds(n_seeds)

    @pytest.mark.parametrize("n_seeds", [0, -1, -100])
    def test_check_n_seeds_names_the_bad_count(self, n_seeds):
        with pytest.raises(ValueError, match=f"n_seeds must be >= 1, got {n_seeds}"):
            check_n_seeds(n_seeds)

    @pytest.mark.parametrize("n_seeds", [0, -2])
    def test_study_genome_rejects_before_any_chain(self, ctx, n_seeds):
        before = ctx.sim.experiment_count
        with pytest.raises(ValueError, match="n_seeds must be >= 1"):
            study_genome(ctx, "cat", checkpoints=(100,), n_seeds=n_seeds)
        assert ctx.sim.experiment_count == before

    def test_run_iteration_study_rejects(self, ctx):
        before = ctx.sim.experiment_count
        with pytest.raises(ValueError, match="n_seeds must be >= 1"):
            run_iteration_study(ctx, genomes=("cat",), checkpoints=(100,), n_seeds=0)
        assert ctx.sim.experiment_count == before
