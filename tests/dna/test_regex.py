"""DNA regex engine: parser, NFA/DFA construction, counting semantics."""

import re

import pytest

from repro.dna import encode, generate_sequence, scan_sequential
from repro.dna.matching import WindowedScanner
from repro.dna.regex import (
    IUPAC_CODES,
    CompiledRegex,
    RegexSyntaxError,
    compile_regex,
    expand_iupac,
    parse_regex,
)


def oracle_end_positions(pattern: str, text: str) -> int:
    """Count positions where some occurrence ends (O(n^2) re oracle)."""
    py = expand_iupac(pattern).replace(".", "[ACGTN]")
    compiled = re.compile(py)
    ends = set()
    for i in range(len(text)):
        for j in range(i + 1):
            if compiled.fullmatch(text, j, i + 1):
                ends.add(i)
                break
    return len(ends)


class TestParser:
    @pytest.mark.parametrize(
        "pattern",
        ["ACGT", "A|C", "AC*G", "(AC)+T", "[ACG]T", "[^A]", "N", "A.T", "AC?G"],
    )
    def test_valid_patterns_parse(self, pattern):
        parse_regex(pattern)

    @pytest.mark.parametrize(
        "pattern",
        ["", "(AC", "AC)", "[AC", "[]", "*A", "A**?|", "AXC", "[^ACGT]"],
    )
    def test_invalid_patterns_rejected(self, pattern):
        with pytest.raises(RegexSyntaxError):
            compile_regex(pattern)

    def test_error_carries_position(self):
        with pytest.raises(RegexSyntaxError) as exc:
            parse_regex("ACX")
        assert exc.value.pos == 2


class TestCountingSemantics:
    @pytest.mark.parametrize(
        "pattern,text,expected",
        [
            ("GAATTC", "GAATTCGAATTC", 2),
            ("A", "AAAA", 4),
            ("A+", "AAAA", 4),  # an occurrence ends at every position
            ("AC|GT", "ACGT", 2),
            ("A.T", "ACTAGT", 2),
            ("(AC)*G", "ACACG", 1),
            ("TATAWAW", "TATAAATTATATAA", 2),  # IUPAC W = A|T
        ],
    )
    def test_known_counts(self, pattern, text, expected):
        assert compile_regex(pattern).count(encode(text)) == expected

    @pytest.mark.parametrize(
        "pattern",
        ["GAATTC", "A+", "AC|GT", "A.T", "(AC)*G", "[AG]C", "TATAWAW", "GC[^G]"],
    )
    def test_matches_re_oracle(self, pattern):
        from repro.dna import decode

        text_codes = generate_sequence(300, seed=hash(pattern) % 2**31)
        text = decode(text_codes)
        assert compile_regex(pattern).count(text_codes) == oracle_end_positions(
            pattern, text
        )

    def test_fixed_string_matches_aho_corasick(self):
        from repro.dna import build_automaton, motif_set

        codes = generate_sequence(5000, seed=9)
        ac = build_automaton(motif_set("x", ["GGATCC"]))
        assert compile_regex("GGATCC").count(codes) == scan_sequential(ac, codes).total

    def test_unknown_bases_only_match_dot(self):
        codes = encode("ANA")
        assert compile_regex("A.A").count(codes) == 1
        assert compile_regex("ANA").count(codes) == 0  # N = [ACGT], not 'N'
        assert compile_regex("AAA").count(codes) == 0


class TestChunkParallel:
    @pytest.mark.parametrize("pattern", ["A+", "(AC)*G", "GAATTC", "TATAWAW"])
    @pytest.mark.parametrize("n_chunks", [1, 3, 7])
    def test_parallel_count_matches_sequential(self, pattern, n_chunks):
        codes = generate_sequence(2000, seed=3)
        cre = compile_regex(pattern)
        assert cre.count_parallel(codes, n_chunks) == cre.count(codes)

    def test_unbounded_context_flag_set(self):
        assert compile_regex("A+").dfa.unbounded_context

    def test_windowed_scanner_refuses_regex_dfa(self):
        with pytest.raises(ValueError, match="suffix property"):
            WindowedScanner(compile_regex("A+").dfa)


class TestIUPAC:
    def test_all_codes_defined(self):
        assert set(IUPAC_CODES) == set("ACGTRYSWKMBDHVN")

    def test_expand_iupac(self):
        assert expand_iupac("TATAWAW") == "TATA[AT]A[AT]"
        assert expand_iupac("ACGT") == "ACGT"

    def test_degenerate_motif_counts_superset(self):
        codes = generate_sequence(20_000, seed=5)
        exact = compile_regex("TATAAA").count(codes)
        degenerate = compile_regex("TATAWA").count(codes)
        assert degenerate >= exact


class TestStateExplosionGuard:
    def test_max_states_enforced(self):
        with pytest.raises(ValueError, match="exceeded"):
            compile_regex("(A|AA)(A|AA)(A|AA)(A|AA)(A|AA)", max_states=4)


class TestCompiledRegexType:
    def test_is_dataclass_with_pattern(self):
        cre = compile_regex("ACGT")
        assert isinstance(cre, CompiledRegex)
        assert cre.pattern == "ACGT"
        assert cre.dfa.patterns == ("ACGT",)
