"""Motif-set container and curated sets."""

import pytest

from repro.dna import (
    CPG_MOTIFS,
    DEFAULT_MOTIFS,
    PROMOTER_MOTIFS,
    RESTRICTION_SITES,
    motif_set,
)


class TestMotifSet:
    def test_uppercases_patterns(self):
        ms = motif_set("x", ["tataaa"])
        assert ms.patterns == ("TATAAA",)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            motif_set("x", ["ACGT", "acgt"])

    def test_rejects_invalid_characters(self):
        with pytest.raises(ValueError, match="invalid motif"):
            motif_set("x", ["ACGN"])

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError, match="invalid motif"):
            motif_set("x", [""])

    def test_len_iter_getitem(self):
        ms = motif_set("x", ["AC", "GT"])
        assert len(ms) == 2
        assert list(ms) == ["AC", "GT"]
        assert ms[1] == "GT"

    def test_union_preserves_order_and_dedups(self):
        a = motif_set("a", ["AC", "GT"])
        b = motif_set("b", ["GT", "TT"])
        u = a.union(b)
        assert u.patterns == ("AC", "GT", "TT")
        assert u.name == "a+b"


class TestCuratedSets:
    def test_default_is_promoters_plus_restriction(self):
        assert len(DEFAULT_MOTIFS) == len(PROMOTER_MOTIFS) + len(RESTRICTION_SITES)

    def test_promoters_contain_tata_box(self):
        assert "TATAAA" in list(PROMOTER_MOTIFS)

    def test_restriction_sites_are_six_cutters(self):
        assert all(len(p) == 6 for p in RESTRICTION_SITES)

    def test_cpg_motifs_overlap_heavy(self):
        assert "CG" in list(CPG_MOTIFS)
