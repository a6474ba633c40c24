"""Workload x platform scenario matrices (core/campaign.py)."""

import hashlib
import json
import multiprocessing

import pytest

from repro.core import TuningOptions, campaign, tune_matrix, tune_scenario
from repro.core.campaign import MatrixResult
from repro.dna.workloads import SHORT_READ, get_workload
from repro.service.serde import encode_platform_report

WORKLOADS = ("dna-paper", "short-read", "dense-motif")
PLATFORMS = ("emil", "fathost", "slowlink")
ITERS = 100


@pytest.fixture(scope="module")
def sam_matrix() -> MatrixResult:
    """One small SAM matrix over a 3x3 scenario subset."""
    return tune_matrix(WORKLOADS, PLATFORMS, method="SAM", iterations=ITERS, seed=0)


class TestTuneScenario:
    def test_cell_defaults_to_the_workload_scale(self):
        cell = tune_scenario("short-read", "emil", method="SAM", iterations=ITERS)
        assert cell.workload == "short-read"
        assert cell.platform == "Emil"
        assert cell.size_mb == SHORT_READ.sequence_mb

    def test_explicit_size_overrides_the_workload_scale(self):
        cell = tune_scenario(
            "short-read", "emil", method="SAM", size_mb=512.0, iterations=ITERS
        )
        assert cell.size_mb == 512.0

    def test_cell_space_is_scenario_fitted(self):
        # short-read coarsens the fraction grid: 6*3 * 9*3 * 21 fractions.
        cell = tune_scenario("short-read", "emil", method="SAM", iterations=ITERS)
        assert cell.report.space_size == 6 * 3 * 9 * 3 * 21

    def test_optimum_distance_is_at_least_one(self):
        cell = tune_scenario("dense-motif", "slowlink", method="SAM", iterations=ITERS)
        assert cell.optimum_distance >= 1.0


class TestTuneMatrix:
    def test_shape_is_workloads_times_platforms(self, sam_matrix):
        assert len(sam_matrix) == len(WORKLOADS) * len(PLATFORMS)
        assert sam_matrix.workloads == tuple(get_workload(w).name for w in WORKLOADS)
        assert sam_matrix.platforms == ("Emil", "FatHost", "SlowLink")

    def test_rows_align_with_headers(self, sam_matrix):
        headers = sam_matrix.table_headers()
        rows = sam_matrix.table_rows()
        assert len(rows) == len(sam_matrix)
        for row in rows:
            assert len(row) == len(headers)

    def test_cell_lookup(self, sam_matrix):
        cell = sam_matrix.cell("short-read", "fathost")
        assert cell.workload == "short-read" and cell.platform == "FatHost"
        with pytest.raises(KeyError):
            sam_matrix.cell("short-read", "cray-1")

    def test_row_lookup_covers_every_platform(self, sam_matrix):
        row = sam_matrix.row("dna-paper")
        assert [r.platform for r in row] == ["Emil", "FatHost", "SlowLink"]
        with pytest.raises(KeyError):
            sam_matrix.row("weather-sim")

    def test_best_platform_for_is_the_fastest_cell(self, sam_matrix):
        best = sam_matrix.best_platform_for("dense-motif")
        times = [r.report.measured_time for r in sam_matrix.row("dense-motif")]
        assert best.report.measured_time == min(times)

    def test_best_cell_maximizes_host_only_speedup(self, sam_matrix):
        best = sam_matrix.best_cell()
        assert best.speedup_vs_host_only == max(
            r.speedup_vs_host_only for r in sam_matrix
        )

    def test_cells_match_standalone_scenarios(self, sam_matrix):
        solo = tune_scenario("dna-paper", "emil", method="SAM", iterations=ITERS, seed=0)
        cell = sam_matrix.cell("dna-paper", "emil")
        assert cell.config == solo.config
        assert cell.report.measured_time == solo.report.measured_time

    def test_workload_changes_the_suggested_landscape(self, sam_matrix):
        # Scenario diversity must be visible in the reports: the same
        # platform tunes to different spaces across workloads.
        column = [r for r in sam_matrix.reports if r.platform == "Emil"]
        assert [r.workload for r in column] == list(sam_matrix.workloads)
        sizes = {r.report.space_size for r in column}
        assert len(sizes) >= 2

    def test_process_fanout_matches_serial_results(self, sam_matrix):
        fanned = tune_matrix(
            WORKLOADS,
            PLATFORMS,
            method="SAM",
            iterations=ITERS,
            seed=0,
            options=TuningOptions(processes=2),
        )
        assert [r.config for r in fanned] == [r.config for r in sam_matrix]
        assert [r.report.measured_time for r in fanned] == [
            r.report.measured_time for r in sam_matrix
        ]

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="at least one workload"):
            tune_matrix((), PLATFORMS)

    def test_ml_matrix_skips_deviceless_platforms(self):
        res = tune_matrix(("dna-paper",), None, method="SAML", iterations=40,
                          size_mb=500.0)
        assert "ManyCore" not in res.platforms
        assert "Emil" in res.platforms

    def test_em_cells_report_full_budget(self):
        res = tune_matrix(("short-read",), ("manycore",), method="EM")
        cell = res.cell("short-read", "manycore")
        assert cell.report.experiments == cell.report.space_size
        assert cell.optimum_distance == pytest.approx(1.0)

    def test_saml_cells_train_at_the_workload_scale(self, monkeypatch):
        # The ML path must hand the registered spec to transfer training
        # so its grid rescales (short-read: sizes cap at 300 MB, not the
        # paper's 3170), keeping predictions inside the trained range.
        from repro.core import training as training_mod
        from repro.core.training import training_sizes_for
        from repro.ml.transfer import clear_transfer_cache

        clear_transfer_cache()  # force this cell to actually train
        grids = []
        real = training_mod.generate_training_data

        def spy(sim, *, sizes_mb, **kwargs):
            grids.append((sizes_mb, real(sim, sizes_mb=sizes_mb, **kwargs)))
            return grids[-1][1]

        monkeypatch.setattr(training_mod, "generate_training_data", spy)
        try:
            tune_scenario("short-read", "emil", method="SAML", iterations=30)
        finally:
            clear_transfer_cache()
        ((sizes, data),) = grids
        assert sizes == training_sizes_for(SHORT_READ)
        assert data.host.X[:, -1].max() <= SHORT_READ.sequence_mb


#: sha256 of the encoded reports of the one-workload fleet matrix below
#: (SAM, dna-paper at 1000 MB, every registered platform, 120
#: iterations, seed 0).  Fleet runs are one-workload matrices; a change
#: here means fleet results moved.
GOLDEN_FLEET_SHA256 = "4b464de0a000328427911be9fd63767a792c55dd94a42c85ae149e19f8eba7c8"


class TestFleetGolden:
    def test_one_workload_fleet_matrix_is_bit_identical(self):
        res = tune_matrix(
            ["dna-paper"], method="SAM", size_mb=1000.0, iterations=120, seed=0
        )
        blob = json.dumps(
            [encode_platform_report(cell.report) for cell in res], sort_keys=True
        )
        assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_FLEET_SHA256


def capture_jobs(monkeypatch) -> list:
    """Record every job the campaign module hands to ``run_tasks``."""
    jobs = []
    real = campaign.run_tasks

    def spy(worker, batch, **options):
        jobs.extend(batch)
        return real(worker, batch, **options)

    monkeypatch.setattr(campaign, "run_tasks", spy)
    return jobs


class TestCellScopedPreseed:
    """Matrix jobs carry their own cell's EM references, nothing else."""

    #: ``(workloads, platforms)`` axes of the matrix under test.
    CELLS = (("dna-paper", "short-read"), ("emil", "dualphi"))
    #: Axes of a disjoint matrix whose references are held throughout.
    UNRELATED = (("dense-motif", "tiny-alphabet"), ("fathost", "slowlink"))

    @pytest.fixture(autouse=True)
    def clean_cache(self):
        campaign.clear_em_cache()
        yield
        campaign.clear_em_cache()

    def hold_unrelated(self):
        for seed in (0, 1):
            tune_matrix(*self.UNRELATED, method="SAM", iterations=ITERS, seed=seed)

    def assert_cell_scoped(self, jobs):
        assert len(jobs) == 4
        for workload, platform, _kwargs, seed_cache in jobs:
            cell = (platform, workload.profile())
            assert seed_cache, f"{workload.name}@{platform.name} got no references"
            assert all(key[:2] == cell for key in seed_cache)

    def test_pooled_equals_serial_while_unrelated_references_are_held(
        self, monkeypatch
    ):
        self.hold_unrelated()
        serial = tune_matrix(*self.CELLS, method="SAM", iterations=ITERS, seed=0)
        held = len(campaign._EM_CACHE)
        jobs = capture_jobs(monkeypatch)
        pooled = tune_matrix(
            *self.CELLS,
            method="SAM",
            iterations=ITERS,
            seed=0,
            options=TuningOptions(processes=2),
        )
        assert pooled == serial
        assert len(campaign._EM_CACHE) == held
        self.assert_cell_scoped(jobs)
        # Each job holds exactly its one reference, not all ``held``.
        assert [len(job[3]) for job in jobs] == [1, 1, 1, 1]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork so the tripwires reach the workers",
    )
    def test_refined_workers_warm_start_from_the_shipped_coarse_twin(
        self, monkeypatch
    ):
        self.hold_unrelated()
        tune_matrix(*self.CELLS, method="SAM", iterations=ITERS, seed=0)
        real_em = campaign.run_em

        def warm_only(*args, refine=None, coarse=None, **kwargs):
            # A refined miss whose coarse twin reached the worker never
            # walks the full simplex again.
            if refine is not None and coarse is None:
                raise AssertionError("cold refined walk despite a held coarse twin")
            return real_em(*args, refine=refine, coarse=coarse, **kwargs)

        real_seed = campaign._seed_and_diff_cache

        def shipped_only(seed_cache):
            # A forked worker inherits the parent's whole cache; start
            # it from the shipped snapshot alone, as under spawn.
            if multiprocessing.parent_process() is not None:
                campaign.clear_em_cache()
            return real_seed(seed_cache)

        monkeypatch.setattr(campaign, "run_em", warm_only)
        monkeypatch.setattr(campaign, "_seed_and_diff_cache", shipped_only)
        refined = dict(method="SAM", iterations=ITERS, seed=0)
        serial = tune_matrix(*self.CELLS, **refined, options=TuningOptions(refine=2.5))
        for key in [k for k in campaign._EM_CACHE if k[5] is not None]:
            del campaign._EM_CACHE[key]  # keep only the coarse twins

        jobs = capture_jobs(monkeypatch)
        pooled = tune_matrix(
            *self.CELLS,
            **refined,
            options=TuningOptions(refine=2.5, processes=2, start_method="fork"),
        )
        assert pooled.reliability.crashes == 0
        assert pooled == serial
        assert [r.report.experiments for r in pooled] == [
            r.report.experiments for r in serial
        ]
        self.assert_cell_scoped(jobs)
        assert all(
            any(key[5] is None for key in job[3]) for job in jobs
        ), "a refined job lost its coarse twin"
