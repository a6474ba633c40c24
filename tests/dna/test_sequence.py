"""Synthetic genomes and base fractions."""

import numpy as np
import pytest

from repro.dna import (
    GENOME_ORDER,
    GENOMES,
    GenomeSpec,
    fraction_bases,
    gc_content,
    generate_sequence,
    genome_sample,
)


class TestGenerate:
    def test_length(self):
        assert len(generate_sequence(1234, seed=1)) == 1234

    def test_deterministic_by_seed(self):
        a = generate_sequence(1000, seed=5)
        b = generate_sequence(1000, seed=5)
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        assert not np.array_equal(
            generate_sequence(1000, seed=1), generate_sequence(1000, seed=2)
        )

    def test_gc_content_matches_request(self):
        codes = generate_sequence(200_000, gc=0.41, seed=3)
        assert gc_content(codes) == pytest.approx(0.41, abs=0.01)

    def test_unknown_rate(self):
        codes = generate_sequence(100_000, unknown_rate=0.1, seed=4)
        frac = np.count_nonzero(codes == 4) / len(codes)
        assert frac == pytest.approx(0.1, abs=0.01)

    def test_zero_length(self):
        assert len(generate_sequence(0)) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            generate_sequence(-1)

    def test_rejects_bad_unknown_rate(self):
        with pytest.raises(ValueError):
            generate_sequence(10, unknown_rate=1.0)


class TestGenomes:
    def test_paper_order(self):
        assert GENOME_ORDER == ("human", "mouse", "cat", "dog")

    def test_paper_sizes(self):
        assert GENOMES["human"].size_mb == pytest.approx(3170.0)
        assert GENOMES["mouse"].size_mb == pytest.approx(2770.0)
        assert GENOMES["cat"].size_mb == pytest.approx(2430.0)
        assert GENOMES["dog"].size_mb == pytest.approx(2380.0)

    def test_sample_is_reproducible(self):
        a = genome_sample(GENOMES["cat"], 10_000)
        b = genome_sample(GENOMES["cat"], 10_000)
        assert np.array_equal(a, b)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GenomeSpec("x", -1.0, 0.4, 1)
        with pytest.raises(ValueError):
            GenomeSpec("x", 10.0, 1.5, 1)


class TestFractionBases:
    def test_exact_percentages(self):
        assert fraction_bases(1000, 60.0) == 600
        assert fraction_bases(1000, 0.0) == 0
        assert fraction_bases(1000, 100.0) == 1000

    def test_rounding(self):
        assert fraction_bases(3, 50.0) == 2  # round half up

    def test_bounds(self):
        with pytest.raises(ValueError):
            fraction_bases(10, 101.0)
        with pytest.raises(ValueError):
            fraction_bases(-1, 50.0)
