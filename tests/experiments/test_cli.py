"""CLI experiment runner."""

import pytest

from repro.cli import ARTIFACTS, main


class TestCLI:
    def test_table2_prints_method_matrix(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "SAML" in out
        assert "Simulated Annealing" in out

    def test_fig2_prints_three_sweeps(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "fig2a" in out and "fig2b" in out and "fig2c" in out
        assert "CPU only" in out

    def test_table4_prints_accuracy(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "percent [%]" in out

    def test_table1_prints_parameter_space(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Workload Fraction" in out
        assert "scatter" in out

    def test_table3_prints_hardware(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "E5-2695v2" in out and "7120P" in out
        assert "244" in out

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure42"])

    def test_artifact_list_is_complete(self):
        for must in ("fig2", "fig9", "table6", "table9", "summary", "tune", "all"):
            assert must in ARTIFACTS


class TestEngineFlags:
    """End-to-end coverage of the --engine/--batch-size flags."""

    def test_unknown_engine_name_is_an_error(self, capsys):
        assert main(["tune", "--engine", "warp-drive"]) == 2
        err = capsys.readouterr().err
        assert "unknown engine" in err
        assert "warp-drive" in err

    def test_tune_with_batched_engine_end_to_end(self, capsys):
        code = main([
            "tune", "--method", "SAML", "--iterations", "60",
            "--engine", "batched", "--batch-size", "32",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "SAML suggestion" in out
        assert "configuration" in out and "measured time" in out
        assert "engine" in out and "batches=" in out

    def test_tune_with_cached_engine_reports_hits(self, capsys):
        code = main([
            "tune", "--method", "SAML", "--iterations", "200", "--engine", "cached",
        ])
        assert code == 0
        assert "cache hits=" in capsys.readouterr().out

    def test_tune_engine_choice_does_not_change_result(self, capsys):
        args = ["tune", "--method", "SAM", "--iterations", "80"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main([*args, "--engine", "cached+batched"]) == 0
        cached = capsys.readouterr().out
        line = next(ln for ln in plain.splitlines() if "configuration" in ln)
        assert line in cached

    def test_tune_unknown_method_is_an_error(self, capsys):
        assert main(["tune", "--method", "GA"]) == 2
        assert "unknown method" in capsys.readouterr().err

    def test_batched_engine_flag_accepted_for_studies(self):
        """--engine parses for study artifacts too (cheap artifact here)."""
        assert main(["table2", "--engine", "batched"]) == 0


class TestSeedsFlag:
    @pytest.mark.parametrize("artifact, seeds", [("summary", "0"), ("table6", "-2")])
    def test_non_positive_seeds_rejected_before_training(
        self, artifact, seeds, capsys, monkeypatch
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained a context for a study that cannot run")

        monkeypatch.setattr("repro.cli.platform_context", no_training)
        assert main([artifact, "--seeds", seeds]) == 2
        captured = capsys.readouterr()
        assert "error: n_seeds must be >= 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    @pytest.mark.parametrize(
        "artifact", ["fig9", "table6", "table7", "table8", "table9", "summary", "all"]
    )
    def test_every_study_artifact_checks_seeds_first(
        self, artifact, seeds, capsys, monkeypatch
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained a context for a study that cannot run")

        monkeypatch.setattr("repro.cli.platform_context", no_training)
        assert main([artifact, "--seeds", seeds]) == 2
        captured = capsys.readouterr()
        assert f"error: n_seeds must be >= 1, got {seeds}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("artifact", ["table1", "table2", "table3"])
    def test_artifacts_without_a_study_ignore_the_seed_count(self, artifact, capsys):
        assert main([artifact, "--seeds", "0"]) == 0
        assert "error" not in capsys.readouterr().err


class TestPlatformFlags:
    """End-to-end coverage of --platform and the campaign/platforms artifacts."""

    def test_platforms_artifact_lists_the_registry(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        for name in ("Emil", "FatHost", "DualPhi", "ManyCore", "SlowLink"):
            assert name in out

    def test_unknown_platform_is_an_error(self, capsys):
        assert main(["tune", "--platform", "cray-1"]) == 2
        err = capsys.readouterr().err
        assert "unknown platform" in err
        assert "emil" in err

    def test_tune_on_a_named_platform(self, capsys):
        code = main([
            "tune", "--method", "SAM", "--iterations", "60",
            "--platform", "fathost",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "on FatHost" in out
        assert "configuration" in out

    def test_tune_default_platform_matches_explicit_emil(self, capsys):
        args = ["tune", "--method", "SAM", "--iterations", "60"]
        assert main(args) == 0
        default = capsys.readouterr().out
        assert main([*args, "--platform", "emil"]) == 0
        explicit = capsys.readouterr().out
        assert default == explicit
        assert "on Emil" in default

    def test_tune_ml_method_rejected_on_deviceless_platform(self, capsys):
        code = main([
            "tune", "--method", "SAML", "--platform", "manycore",
            "--iterations", "40",
        ])
        assert code == 2
        assert "no accelerator" in capsys.readouterr().err

    def test_campaign_covers_the_fleet(self, capsys):
        code = main(["campaign", "--iterations", "80", "--size-mb", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Campaign: SAM" in out
        for name in ("Emil", "FatHost", "DualPhi", "ManyCore", "SlowLink"):
            assert name in out
        assert "fastest platform" in out

    def test_campaign_platform_subset(self, capsys):
        code = main([
            "campaign", "--platforms", "emil,slowlink",
            "--iterations", "60", "--size-mb", "500",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Emil" in out and "SlowLink" in out
        assert "FatHost" not in out

    def test_campaign_unknown_platform_is_an_error(self, capsys):
        code = main(["campaign", "--platforms", "emil,nope"])
        assert code == 2
        assert "unknown platform" in capsys.readouterr().err

    def test_table3_follows_the_platform(self, capsys):
        assert main(["table3", "--platform", "dualphi"]) == 0
        out = capsys.readouterr().out
        assert "DualPhi" in out
        assert "7290" in out

    def test_campaign_honors_platform_flag(self, capsys):
        code = main([
            "campaign", "--platform", "fathost",
            "--iterations", "60", "--size-mb", "500",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "FatHost" in out
        assert "Emil" not in out
        assert "across 1 platforms" in out


class TestWorkloadFlags:
    """End-to-end coverage of --workload and the workloads/matrix artifacts."""

    def test_workloads_artifact_lists_the_registry(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in (
            "dna-paper", "short-read", "long-genome",
            "dense-motif", "tiny-alphabet", "protein-alphabet",
        ):
            assert name in out

    def test_unknown_workload_is_an_error(self, capsys):
        assert main(["tune", "--workload", "weather-sim"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err
        assert "dna-paper" in err

    def test_tune_on_a_named_workload_uses_its_scale(self, capsys):
        code = main([
            "tune", "--method", "SAM", "--iterations", "60",
            "--workload", "short-read",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "300 MB short-read workload" in out

    def test_tune_default_workload_matches_explicit_dna_paper(self, capsys):
        args = ["tune", "--method", "SAM", "--iterations", "60"]
        assert main(args) == 0
        default = capsys.readouterr().out
        assert main([*args, "--workload", "dna-paper"]) == 0
        explicit = capsys.readouterr().out
        assert default == explicit
        assert "dna-paper workload on Emil" in default

    def test_campaign_honors_workload_flag(self, capsys):
        code = main([
            "campaign", "--workload", "dense-motif", "--platforms", "emil",
            "--iterations", "60",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dense-motif workload" in out

    def test_matrix_small_budget_scale(self, capsys):
        code = main([
            "matrix", "--budget-scale", "small", "--iterations", "80",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Scenario matrix: SAM across 3 workloads x 3 platforms" in out
        for name in ("dna-paper", "short-read", "dense-motif"):
            assert name in out
        for name in ("Emil", "FatHost", "SlowLink"):
            assert name in out
        assert "best cell" in out

    def test_matrix_explicit_subsets(self, capsys):
        code = main([
            "matrix", "--workloads", "short-read,long-genome",
            "--platforms", "emil,slowlink", "--iterations", "60",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "across 2 workloads x 2 platforms" in out
        assert "long-genome" in out and "FatHost" not in out

    def test_matrix_unknown_workload_is_an_error(self, capsys):
        code = main(["matrix", "--workloads", "nope", "--platforms", "emil"])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err


class TestPortfolioFlags:
    """The portfolio artifact and the --portfolio/--transfer/--store flags."""

    def test_portfolio_artifact_prints_the_rung_ledger(self, capsys):
        code = main([
            "portfolio", "--workload", "short-read", "--iterations", "60",
            "--portfolio", "sh:15x2:SAM+RS+HC",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Portfolio race sh:15x2:SAM+RS+HC" in out
        assert "won in" in out
        assert "spend per entrant" in out
        assert "timed experiments" in out

    def test_portfolio_artifact_defaults_to_the_full_catalogue(self, capsys):
        # Bare `--portfolio` (no spec) and the portfolio artifact both
        # fall back to the default successive-halving schedule.
        code = main([
            "portfolio", "--workload", "short-read", "--iterations", "60",
            "--transfer",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Portfolio race sh:125x2" in out
        assert "transfer:" in out

    def test_unparseable_portfolio_spec_is_an_error(self, capsys):
        assert main(["matrix", "--portfolio", "hyperband:3"]) == 2
        assert "portfolio" in capsys.readouterr().err

    def test_matrix_with_portfolio_reuses_stored_models(self, capsys, tmp_path):
        from repro.ml.transfer import clear_transfer_cache

        store = str(tmp_path / "store.jsonl")
        args = [
            "matrix", "--workloads", "short-read", "--platforms", "emil",
            "--iterations", "60", "--portfolio", "sh:15x2:SAM+SAML+RS",
            "--transfer", "--store", store,
        ]
        clear_transfer_cache()  # process-wide counters: start from zero
        try:
            assert main(args) == 0
            first = capsys.readouterr().out
            assert "portfolio short-read@Emil:" in first
            # Warm-started training: the donor chain is dna-paper cold
            # plus this cell warm, both measured fresh.
            assert "1 cold fits, 1 warm fits" in first
            assert "2 grids measured" in first
            # A fresh process against the same store trains nothing.
            clear_transfer_cache()
            assert main(args) == 0
            second = capsys.readouterr().out
            assert "0 cold fits, 0 warm fits" in second
            assert "2 model store hits" in second
            assert "0 grids measured" in second
        finally:
            clear_transfer_cache()
