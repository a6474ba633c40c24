"""Cross-cell transfer learning (ml/transfer.py)."""

import dataclasses

import numpy as np
import pytest

from repro.core.params import workload_space
from repro.core.training import (
    TRAINING_FRACTIONS,
    generate_training_data,
    train_models,
    training_sizes_for,
)
from repro.dna.workloads import get_workload
from repro.machines.simulator import PlatformSimulator
from repro.machines.spec import EMIL
from repro.ml.transfer import (
    BUILTIN_DEVICE_PLATFORMS,
    BUILTIN_WORKLOADS,
    TWIN_DISCOUNT,
    WARM_SIZE_STRIDE,
    cell_distance,
    cell_models,
    clear_transfer_cache,
    evaluate_models,
    platform_distance,
    transfer_donor,
    transfer_stats,
    workload_distance,
)

DNA = get_workload("dna-paper")
SHORT_READ = get_workload("short-read")
LONG_GENOME = get_workload("long-genome")
PROTEIN = get_workload("protein-alphabet")
FATHOST = next(p for p in BUILTIN_DEVICE_PLATFORMS if p.name == "FatHost")


@pytest.fixture(autouse=True)
def clean_transfer_state():
    """Each test starts from an empty model cache and zeroed counters."""
    clear_transfer_cache()
    yield
    clear_transfer_cache()


def fasta_twins():
    """A derived positive/background pair, same data different stats."""
    positive = dataclasses.replace(DNA, name="fasta:promoters")
    background = dataclasses.replace(
        DNA, name="fasta:promoters:shuffled", match_density=DNA.match_density / 8
    )
    return positive, background


class TestMetric:
    def test_workload_distance_is_a_premetric(self):
        assert workload_distance(DNA, DNA) == 0.0
        assert workload_distance(DNA, SHORT_READ) > 0.0
        assert workload_distance(DNA, SHORT_READ) == pytest.approx(
            workload_distance(SHORT_READ, DNA)
        )

    def test_platform_distance_is_a_premetric(self):
        assert platform_distance(EMIL, EMIL) == 0.0
        assert platform_distance(EMIL, FATHOST) > 0.0
        assert platform_distance(EMIL, FATHOST) == pytest.approx(
            platform_distance(FATHOST, EMIL)
        )

    def test_long_genome_is_nearer_the_paper_workload_than_protein(self):
        # Same motif set at a different input scale vs a different
        # alphabet entirely — the metric must order them correctly.
        assert workload_distance(DNA, LONG_GENOME) < workload_distance(DNA, PROTEIN)

    def test_cell_distance_zero_on_the_same_cell(self):
        assert cell_distance((DNA, EMIL), (DNA, EMIL)) == 0.0

    def test_cell_distance_finite_only_for_single_axis_moves(self):
        assert cell_distance((DNA, EMIL), (SHORT_READ, EMIL)) == pytest.approx(
            workload_distance(DNA, SHORT_READ)
        )
        assert cell_distance((DNA, EMIL), (DNA, FATHOST)) == pytest.approx(
            platform_distance(EMIL, FATHOST)
        )
        assert cell_distance((DNA, EMIL), (SHORT_READ, FATHOST)) == float("inf")

    def test_derived_twins_are_discounted(self):
        positive, background = fasta_twins()
        discounted = cell_distance((positive, EMIL), (background, EMIL))
        assert discounted == pytest.approx(
            TWIN_DISCOUNT * workload_distance(positive, background)
        )
        # The discount applies to the twin relation only, not to any
        # derived pair from different families.
        other = dataclasses.replace(background, name="fasta:exons:shuffled")
        assert cell_distance((positive, EMIL), (other, EMIL)) == pytest.approx(
            workload_distance(positive, other)
        )


class TestDonorRule:
    def test_root_cell_is_cold(self):
        assert transfer_donor(DNA, EMIL) is None

    def test_known_donors(self):
        # Workload axis: short-read@Emil warm-starts from the paper cell.
        assert transfer_donor(SHORT_READ, EMIL) == (DNA, EMIL)
        # Platform axis: the paper workload on FatHost pulls from Emil.
        assert transfer_donor(DNA, FATHOST) == (DNA, EMIL)

    def test_donor_graph_is_an_acyclic_dag_rooted_at_the_paper_cell(self):
        for w in BUILTIN_WORKLOADS:
            for p in BUILTIN_DEVICE_PLATFORMS:
                cell, hops = (w, p), 0
                while True:
                    donor = transfer_donor(*cell)
                    if donor is None:
                        break
                    hops += 1
                    assert hops <= len(BUILTIN_WORKLOADS) + len(
                        BUILTIN_DEVICE_PLATFORMS
                    ), f"donor chain from {w.name}@{p.name} does not terminate"
                    cell = donor
                assert (cell[0].name, cell[1].name) == ("dna-paper", "Emil")

    def test_donor_is_always_a_single_axis_neighbor(self):
        for w in BUILTIN_WORKLOADS:
            for p in BUILTIN_DEVICE_PLATFORMS:
                donor = transfer_donor(w, p)
                if donor is not None:
                    assert cell_distance((w, p), donor) < float("inf")

    def test_derived_workloads_take_a_builtin_donor_on_their_platform(self):
        positive, background = fasta_twins()
        for spec in (positive, background):
            donor = transfer_donor(spec, EMIL)
            assert donor is not None
            dw, dp = donor
            assert dp == EMIL
            assert dw.name in {w.name for w in BUILTIN_WORKLOADS}


class TestContinueFit:
    def test_continuation_extends_the_donor_ensemble(self):
        from repro.ml.boosting import BoostedDecisionTreeRegressor

        rng = np.random.default_rng(0)
        X = rng.uniform(size=(200, 3))
        y = X @ np.array([2.0, -1.0, 0.5]) + 0.05 * rng.normal(size=200)
        base = BoostedDecisionTreeRegressor(
            n_estimators=30, learning_rate=0.1, max_depth=3, seed=0
        ).fit(X, y)
        extended = base.continue_fit(X, y, 20)
        assert len(extended.trees_) == len(base.trees_) + 20
        # The donor's stages are carried verbatim, not refit.
        assert extended.base_prediction_ == base.base_prediction_
        assert all(
            ours is theirs
            for ours, theirs in zip(extended.trees_, base.trees_)
        )
        # And the new stages fit the residual: training loss improves.
        base_mse = float(np.mean((base.predict(X) - y) ** 2))
        ext_mse = float(np.mean((extended.predict(X) - y) ** 2))
        assert ext_mse <= base_mse


class TestCellModels:
    @pytest.fixture(scope="class")
    def short_read_grid(self):
        """The full-size short-read grid both fits are judged on."""
        space = workload_space(SHORT_READ, EMIL)
        sim = PlatformSimulator(EMIL, SHORT_READ.profile(), seed=0)
        return generate_training_data(
            sim,
            sizes_mb=training_sizes_for(SHORT_READ),
            host_threads=space.host_threads,
            host_affinities=space.host_affinities,
            device_threads=space.device_threads,
            device_affinities=space.device_affinities,
            fractions=TRAINING_FRACTIONS,
        )

    def test_cold_ledger_charges_the_full_grid(self):
        models = cell_models(EMIL, SHORT_READ, transfer=False)
        space = workload_space(SHORT_READ, EMIL)
        per_size = len(TRAINING_FRACTIONS) * (
            len(space.host_threads) * len(space.host_affinities)
            + len(space.device_threads) * len(space.device_affinities)
        )
        n_sizes = len(training_sizes_for(SHORT_READ))
        assert models.ledger.mode == "cold"
        assert models.ledger.donor is None
        assert models.ledger.grid_experiments == n_sizes * per_size
        assert models.ledger.lineage == ("short-read@Emil",)

    def test_warm_ledger_halves_the_grid_and_names_the_lineage(self):
        models = cell_models(EMIL, SHORT_READ, transfer=True)
        cold = cell_models(EMIL, SHORT_READ, transfer=False)
        assert models.ledger.mode == "warm"
        assert models.ledger.donor == ("dna-paper", "Emil")
        assert models.ledger.lineage == ("dna-paper@Emil", "short-read@Emil")
        assert models.ledger.grid_experiments * WARM_SIZE_STRIDE == (
            cold.ledger.grid_experiments
        )
        assert models.digest != cold.digest

    def test_warm_model_matches_cold_accuracy_on_held_out_data(
        self, short_read_grid
    ):
        cold = cell_models(EMIL, SHORT_READ, transfer=False)
        warm = cell_models(EMIL, SHORT_READ, transfer=True)
        cold_eval = evaluate_models(cold, short_read_grid)
        warm_eval = evaluate_models(warm, short_read_grid)
        for side in ("host", "device"):
            assert cold_eval[side].mean_percent_error < 10.0
            # Equivalence bound: the warm fit sees half the grid and
            # inherits a neighbor's trees, yet must stay within 2 MPE
            # points of the from-scratch fit (measured ~0.5-0.8 apart).
            assert warm_eval[side].mean_percent_error < (
                cold_eval[side].mean_percent_error + 2.0
            )

    def test_evaluation_holds_out_the_cell_seed_split(self, short_read_grid):
        # A seed-3 cell trains on half_split(seed=3); evaluating it on the
        # seed-0 test half would score rows the fit saw.
        trained = train_models(short_read_grid, seed=3)
        held_out = evaluate_models(trained, short_read_grid, seed=3)
        for side, own in (("host", trained.host_eval), ("device", trained.device_eval)):
            assert held_out[side].mean_absolute_error_s == own.mean_absolute_error_s
            assert held_out[side].mean_percent_error == own.mean_percent_error
            assert held_out[side].n_test == own.n_test

    def test_memory_cache_returns_the_same_models(self):
        first = cell_models(EMIL, SHORT_READ, transfer=True)
        hits_before = transfer_stats().models_memory_hits
        second = cell_models(EMIL, SHORT_READ, transfer=True)
        assert second is first
        # Two hits: the donor chain resolves through the cache too.
        assert transfer_stats().models_memory_hits == hits_before + 2

    def test_store_round_trip_is_bit_identical(self, tmp_path, short_read_grid):
        from repro.core.campaign import set_result_store
        from repro.service import ResultStore

        X = short_read_grid.host.X[:64]
        previous = set_result_store(ResultStore(tmp_path / "s.jsonl"))
        try:
            fresh = cell_models(EMIL, SHORT_READ, transfer=True)
            want_host = fresh.host_model.predict(X)
            # A new process (fresh caches, fresh store handle on the
            # same path) must serve the identical models from disk.
            clear_transfer_cache()
            set_result_store(ResultStore(tmp_path / "s.jsonl"))
            served = cell_models(EMIL, SHORT_READ, transfer=True)
            assert transfer_stats().models_store_hits >= 1
            assert transfer_stats().cold_fits == 0
            assert transfer_stats().warm_fits == 0
            assert transfer_stats().grids_measured == 0
            assert served.digest == fresh.digest
            assert served.ledger == fresh.ledger
            np.testing.assert_array_equal(served.host_model.predict(X), want_host)
        finally:
            set_result_store(previous)

    def test_deviceless_platform_is_rejected(self):
        with pytest.raises(ValueError, match="device"):
            cell_models("manycore", SHORT_READ)
