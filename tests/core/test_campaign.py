"""Per-platform tuning and fleet runs (core/campaign.py).

A fleet run is a one-workload matrix: ``tune_matrix([workload], platforms)``.
"""

import multiprocessing

import pytest

from repro.core import TuningOptions, campaign, platform_space, tune_matrix, tune_platform
from repro.core.campaign import MatrixResult
from repro.machines import FATHOST, MANYCORE, get_platform, platform_names
from repro.ml.transfer import transfer_stats
from repro.dna.workloads import get_workload

SIZE_MB = 600.0
ITERS = 120
WORKLOAD = "dna-paper"


def fleet(platforms=None, **kwargs) -> MatrixResult:
    """One SAM fleet run: the ``dna-paper`` row over ``platforms``."""
    kwargs = {"method": "SAM", "size_mb": SIZE_MB, "iterations": ITERS, **kwargs}
    return tune_matrix([WORKLOAD], platforms, **kwargs)


@pytest.fixture(scope="module")
def sam_fleet() -> MatrixResult:
    """One small SAM fleet run across the whole registered fleet."""
    return fleet(seed=0)


class TestTunePlatform:
    def test_report_fields_are_consistent(self):
        r = tune_platform("emil", method="SAM", size_mb=SIZE_MB, iterations=ITERS)
        assert r.platform == "Emil"
        assert r.method == "SAM"
        assert r.space_size == 19926
        assert r.measured_time > 0 and r.em_time > 0
        assert r.config in platform_space(get_platform("emil"))

    def test_method_never_beats_the_enumeration_optimum(self):
        # EM scans the same deterministic measurement landscape the
        # method searches, so the method's config can only tie it.
        r = tune_platform("slowlink", method="SAM", size_mb=SIZE_MB, iterations=ITERS)
        assert r.quality_vs_em >= 1.0

    def test_budget_is_a_small_fraction_of_enumeration(self):
        r = tune_platform("dualphi", method="SAM", size_mb=SIZE_MB, iterations=ITERS)
        assert r.experiments < r.space_size
        assert 0.0 < r.budget_fraction < 0.1
        assert r.space_size / max(1, r.experiments) > 10

    def test_deviceless_platform_tunes_host_only(self):
        r = tune_platform("manycore", method="SAM", size_mb=SIZE_MB, iterations=ITERS)
        assert r.config.host_fraction == 100.0
        assert r.device_only_time is None
        assert r.speedup_vs_device_only is None
        assert r.space_size == len(platform_space(MANYCORE))

    def test_ml_method_rejected_without_a_device(self):
        with pytest.raises(ValueError, match="no accelerator"):
            tune_platform("manycore", method="SAML", size_mb=SIZE_MB, iterations=ITERS)

    def test_unknown_method_rejected_before_the_em_walk(self):
        campaign.clear_em_cache()
        with pytest.raises(ValueError, match="unknown method 'FOO'"):
            tune_platform("emil", method="FOO")
        assert len(campaign._EM_CACHE) == 0

    def test_em_method_reports_full_budget(self):
        r = tune_platform("manycore", method="EM", size_mb=SIZE_MB)
        assert r.experiments == r.space_size
        assert r.quality_vs_em == pytest.approx(1.0)

    def test_saml_beats_both_baselines_on_large_input(self):
        r = tune_platform("emil", method="SAML", size_mb=3170.0, iterations=500)
        assert r.speedup_vs_host_only > 1.2
        assert r.speedup_vs_device_only > 1.5
        assert 0.0 < r.config.host_fraction < 100.0
        assert r.em_time <= r.measured_time + 1e-12

    def test_small_input_keeps_work_on_host(self):
        r = tune_platform("emil", method="EM", size_mb=100.0)
        assert r.config.host_fraction == 100.0

    def test_sam_needs_no_training(self):
        before = transfer_stats().as_dict()
        r = tune_platform("emil", method="SAM", size_mb=2000.0, iterations=100, seed=2)
        assert r.method == "SAM"
        assert r.training_experiments == 0
        assert transfer_stats().as_dict() == before

    def test_space_fits_the_named_platform(self):
        r = tune_platform("fathost", method="SAM", size_mb=SIZE_MB, iterations=ITERS)
        space = platform_space(FATHOST)
        assert r.platform == FATHOST.name
        assert r.space_size == len(space)
        assert max(space.host_threads) == FATHOST.host_hardware_threads

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError, match="unknown platform"):
            tune_platform("cray-1", method="SAM")


class TestFleet:
    def test_covers_every_registered_platform(self, sam_fleet):
        assert len(sam_fleet) == len(platform_names())
        assert {r.platform.lower() for r in sam_fleet} == set(platform_names())

    def test_rows_align_with_headers(self, sam_fleet):
        headers = sam_fleet.table_headers()
        for row in sam_fleet.table_rows():
            assert len(row) == len(headers)

    def test_report_lookup_by_name(self, sam_fleet):
        assert sam_fleet.cell(WORKLOAD, "emil").platform == "Emil"
        with pytest.raises(KeyError):
            sam_fleet.cell(WORKLOAD, "cray-1")

    def test_best_platform_is_the_fastest(self, sam_fleet):
        best = sam_fleet.best_platform_for(WORKLOAD)
        assert best.report.measured_time == min(r.report.measured_time for r in sam_fleet)

    def test_explicit_platform_subset(self):
        res = fleet(("emil", "slowlink"))
        assert [r.platform for r in res] == ["Emil", "SlowLink"]

    def test_saml_trains_and_tunes_a_platform(self):
        # ML search costs no experiments beyond the final measurement.
        res = fleet(("emil",), method="SAML")
        assert res.cell(WORKLOAD, "emil").report.experiments == 1

    def test_engine_none_disables_engine_stats(self):
        res = fleet(("emil",), iterations=40, options=TuningOptions(engine=None))
        assert res.cell(WORKLOAD, "emil").report.engine_batches == 0

    def test_ml_fleet_skips_deviceless_platforms(self, monkeypatch):
        seen = []

        def fake_tune_platform(platform, **kwargs):
            # Fleet jobs carry resolved specs (runtime-registered
            # platforms must survive pool fan-out), not registry names.
            seen.append(platform.name.lower())
            return tune_platform(platform, method="EM", size_mb=SIZE_MB)

        monkeypatch.setattr(campaign, "tune_platform", fake_tune_platform)
        fleet(method="SAML")
        assert "manycore" not in seen
        assert "emil" in seen

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one workload and one platform"):
            fleet(())

    def test_process_fanout_matches_serial_results(self, sam_fleet):
        fanned = fleet(seed=0, options=TuningOptions(processes=2))
        assert [r.config for r in fanned] == [r.config for r in sam_fleet]
        assert [r.report.measured_time for r in fanned] == [
            r.report.measured_time for r in sam_fleet
        ]


class TestEMReferenceCache:
    def test_same_cell_reuses_the_em_walk(self):
        from repro.core.campaign import _EM_CACHE, clear_em_cache

        clear_em_cache()
        first = tune_platform("emil", method="SAM", size_mb=SIZE_MB, iterations=ITERS)
        assert len(_EM_CACHE) == 1
        (cached,) = _EM_CACHE.values()
        # A second method on the same cell reuses the cached reference
        # instead of re-walking the space.
        second = tune_platform("emil", method="EM", size_mb=SIZE_MB, iterations=ITERS)
        assert len(_EM_CACHE) == 1
        assert first.em_config == second.em_config == cached.config
        assert first.em_time == second.em_time == cached.measured_time
        clear_em_cache()

    def test_cached_reference_matches_a_fresh_walk(self):
        from repro.core import run_em
        from repro.core.campaign import clear_em_cache
        from repro.machines import PlatformSimulator

        clear_em_cache()
        report = tune_platform("fathost", method="SAM", size_mb=SIZE_MB, iterations=ITERS)
        spec = get_platform("fathost")
        fresh = run_em(platform_space(spec), PlatformSimulator(spec, seed=0), SIZE_MB)
        assert report.em_config == fresh.config
        assert report.em_time == fresh.measured_time
        clear_em_cache()

    def test_distinct_cells_get_distinct_entries(self):
        from repro.core.campaign import _EM_CACHE, clear_em_cache

        clear_em_cache()
        tune_platform("emil", method="SAM", size_mb=SIZE_MB, iterations=ITERS)
        tune_platform("emil", method="SAM", size_mb=2 * SIZE_MB, iterations=ITERS)
        tune_platform("slowlink", method="SAM", size_mb=SIZE_MB, iterations=ITERS)
        assert len(_EM_CACHE) == 3
        clear_em_cache()

    def test_refine_is_part_of_the_cache_key(self):
        from repro.core.campaign import _EM_CACHE, clear_em_cache

        clear_em_cache()
        plain = tune_platform(
            "dualphi", method="SAM", size_mb=SIZE_MB, iterations=ITERS
        )
        refined = tune_platform(
            "dualphi",
            method="SAM",
            size_mb=SIZE_MB,
            iterations=ITERS,
            options=TuningOptions(refine=2.5),
        )
        # Different fidelity -> different cached reference; the refined
        # EM optimum can only improve on the coarse-grid one.
        assert len(_EM_CACHE) == 2
        assert refined.em_time <= plain.em_time
        clear_em_cache()

    def test_shards_are_not_part_of_the_cache_key(self):
        from repro.core.campaign import _EM_CACHE, clear_em_cache

        clear_em_cache()
        plain = tune_platform(
            "dualphi", method="SAM", size_mb=SIZE_MB, iterations=ITERS
        )
        sharded = tune_platform(
            "dualphi",
            method="SAM",
            size_mb=SIZE_MB,
            iterations=ITERS,
            options=TuningOptions(shards=4),
        )
        assert len(_EM_CACHE) == 1  # sharding is bit-identical: same cell
        assert sharded.em_time == plain.em_time
        assert sharded.em_config == plain.em_config
        clear_em_cache()


class TestEMCacheMergeBack:
    """Satellite fix: the EM cache must survive process fan-out."""

    def _worker_kwargs(self) -> dict:
        return dict(method="SAM", size_mb=SIZE_MB, iterations=ITERS, seed=0)

    def _worker_job(self, seed_cache) -> tuple:
        return (WORKLOAD, "emil", self._worker_kwargs(), seed_cache)

    def test_preseeded_worker_runs_no_duplicate_em_walk(self):
        campaign.clear_em_cache()
        tune_platform("emil", workload=WORKLOAD, **self._worker_kwargs())
        assert len(campaign._EM_CACHE) == 1
        snapshot = campaign._em_cache_snapshot(get_platform("emil"), get_workload(WORKLOAD))
        assert snapshot == campaign._EM_CACHE
        report, fresh = campaign._tune_scenario_worker(self._worker_job(snapshot))
        # The worker found its cell pre-seeded: nothing fresh to return.
        assert fresh == {}
        assert report.report.em_config == next(iter(snapshot.values())).config
        campaign.clear_em_cache()

    def test_cold_worker_returns_its_fresh_entries(self):
        campaign.clear_em_cache()
        report, fresh = campaign._tune_scenario_worker(self._worker_job({}))
        assert len(fresh) == 1
        (entry,) = fresh.values()
        assert entry.config == report.report.em_config
        campaign.clear_em_cache()

    def test_pooled_fleet_populates_the_parent_cache(self):
        campaign.clear_em_cache()
        first = fleet(("emil", "fathost"), options=TuningOptions(processes=2))
        # Worker-computed EM references travel back over the pipe and
        # land in the parent's cache.
        assert len(campaign._EM_CACHE) == 2
        cached = {entry.config for entry in campaign._EM_CACHE.values()}
        assert {r.report.em_config for r in first} == cached
        campaign.clear_em_cache()

    def test_repeated_fleet_never_rewalks_a_cell(self, monkeypatch):
        campaign.clear_em_cache()
        first = fleet(("emil", "fathost"), options=TuningOptions(processes=2))
        # Every cell is now cached in the parent; a repeat fleet run must
        # not enumerate again, pooled or not.
        def forbidden(*args, **kwargs):
            raise AssertionError("EM reference re-walked despite a warm cache")

        monkeypatch.setattr(campaign, "run_em", forbidden)
        again = fleet(("emil", "fathost"))
        assert [r.report.em_time for r in again] == [r.report.em_time for r in first]
        assert len(campaign._EM_CACHE) == 2
        campaign.clear_em_cache()


class TestCellScopedPreseed:
    """Each fleet job carries only its own cell's EM references."""

    def test_jobs_hold_only_their_cells_references(self, monkeypatch):
        campaign.clear_em_cache()
        kwargs = dict(method="SAM", size_mb=SIZE_MB, iterations=ITERS, workload=WORKLOAD)
        fleet(("emil", "fathost"))
        # Same cell at another size, and an unrelated platform.
        tune_platform("emil", **{**kwargs, "size_mb": 2 * SIZE_MB})
        tune_platform("slowlink", **kwargs)
        assert len(campaign._EM_CACHE) == 4

        jobs = []
        real = campaign.run_tasks

        def spy(worker, batch, **options):
            jobs.extend(batch)
            return real(worker, batch, **options)

        monkeypatch.setattr(campaign, "run_tasks", spy)
        fleet(("emil", "fathost"))

        sizes = {}
        for workload, spec, _kwargs, seed_cache in jobs:
            assert workload.name == WORKLOAD
            cell = campaign._em_cell(spec, workload)
            assert all(key[:2] == cell for key in seed_cache), spec.name
            sizes[spec.name] = len(seed_cache)
        assert sizes == {"Emil": 2, "FatHost": 1}
        campaign.clear_em_cache()


class TestFleetStartMethods:
    @pytest.fixture(scope="class")
    def serial(self) -> MatrixResult:
        return fleet(("emil", "slowlink"))

    @pytest.mark.parametrize(
        "start_method", multiprocessing.get_all_start_methods()
    )
    def test_results_are_start_method_independent(self, serial, start_method):
        fanned = fleet(
            ("emil", "slowlink"),
            options=TuningOptions(processes=2, start_method=start_method),
        )
        assert [r.config for r in fanned] == [r.config for r in serial]
        assert [r.report.measured_time for r in fanned] == [
            r.report.measured_time for r in serial
        ]

    def test_default_context_prefers_the_safest_method(self):
        from repro.core.pool import START_METHOD_PREFERENCE, pool_context

        available = multiprocessing.get_all_start_methods()
        want = next(m for m in START_METHOD_PREFERENCE if m in available)
        assert pool_context().get_start_method() == want

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ValueError, match="not available"):
            fleet(
                ("emil", "slowlink"),
                options=TuningOptions(processes=2, start_method="no-such-method"),
            )
