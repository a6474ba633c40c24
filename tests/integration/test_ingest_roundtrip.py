"""Golden ingest→tune round-trip on the bundled sample FASTA.

Pins the bundled sample's measured statistics bit-for-bit (the file and
the pipeline are both deterministic), then drives the registered
``fasta:*`` pair through ``tune_scenario`` and ``tune_matrix`` exactly
like a built-in workload.
"""

import pytest

from repro.core import TuningOptions, clear_em_cache, tune_matrix, tune_scenario
from repro.dna import BUNDLED_FASTA, ingest_fasta, register_ingest
from repro.dna.workloads import WORKLOADS

ITERS = 80


@pytest.fixture(autouse=True)
def clean_state():
    """Restore the workload registry and EM cache around every test."""
    snapshot = dict(WORKLOADS)
    clear_em_cache()
    yield
    WORKLOADS.clear()
    WORKLOADS.update(snapshot)
    clear_em_cache()


@pytest.fixture(scope="module")
def report():
    return ingest_fasta(BUNDLED_FASTA, shuffle_seed=0)


class TestGoldenIngest:
    """The bundled sample's measurements, pinned exactly."""

    def test_sequence_statistics(self, report):
        stats = report.stats
        assert stats.n_records == 4
        assert stats.n_bases == 5041
        assert stats.base_counts == (1505, 1009, 1032, 1495)
        assert stats.unknown_bases == 0
        assert stats.gc_content == pytest.approx(0.40488, abs=1e-5)

    def test_derived_workload_pair(self, report):
        assert report.alphabet_size == 9
        assert report.automaton_states == 104
        assert report.match_density == 72 / 5041
        assert report.background_density == 31 / 5041
        assert report.enrichment() == pytest.approx(72 / 31)
        assert report.workload.state_sharing == pytest.approx(0.11321, abs=1e-5)
        assert report.workload.sequence_mb == pytest.approx(0.005041)
        assert report.workload.transfer_overlap == 0.45  # multi-record archive

    def test_ingest_is_bit_reproducible(self, report):
        again = ingest_fasta(BUNDLED_FASTA, shuffle_seed=0)
        assert again.workload == report.workload
        assert again.background == report.background
        assert again.workload.content_digest() == report.workload.content_digest()

    def test_different_seed_changes_the_background(self, report):
        other = ingest_fasta(BUNDLED_FASTA, shuffle_seed=1)
        assert other.workload == report.workload  # positive set untouched
        assert other.background != report.background


class TestTuneRoundTrip:
    def test_registered_pair_tunes_like_a_builtin(self, report):
        positive, background = register_ingest(report)
        options = TuningOptions(engine="cached+batched", batch_size=64)
        cells = {
            key: tune_scenario(
                key, "emil", size_mb=3000, iterations=ITERS, seed=0, options=options
            )
            for key in (positive, background)
        }
        for key, cell in cells.items():
            assert cell.workload == key
            assert cell.report.quality_vs_em >= 1.0

    def test_tune_scenario_is_bit_reproducible(self, report):
        (positive, _) = register_ingest(report)
        first = tune_scenario(positive, "emil", size_mb=3000, iterations=ITERS, seed=0)
        clear_em_cache()
        second = tune_scenario(positive, "emil", size_mb=3000, iterations=ITERS, seed=0)
        assert first == second  # frozen dataclasses: exact float equality

    def test_matrix_process_fanout_matches_serial(self, report):
        """fasta:* cells survive pool fan-out: jobs carry resolved specs,
        so workers' fresh registries never need the runtime keys."""
        keys = register_ingest(report)
        serial = tune_matrix(keys, ("emil",), iterations=ITERS, seed=0)
        fanned = tune_matrix(
            keys, ("emil",), iterations=ITERS, seed=0,
            options=TuningOptions(processes=2),
        )
        assert fanned.workloads == serial.workloads
        assert fanned.reports == serial.reports
