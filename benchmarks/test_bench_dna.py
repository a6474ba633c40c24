"""Ablation — DNA matching engines (the executable workload substrate).

Throughput of the scalar reference scan, the exact vectorized windowed
scan (the SIMD-kernel analog) and chunk-parallel PaREM on the same
buffer, with identical-results verification.  This is a genuine
microbenchmark, so pytest-benchmark's statistics are meaningful here.
"""

import numpy as np
import pytest

from repro.dna import (
    DEFAULT_MOTIFS,
    ParemEngine,
    WindowedScanner,
    build_automaton,
    generate_sequence,
    scan_sequential,
)

DFA = build_automaton(DEFAULT_MOTIFS)
SMALL = generate_sequence(50_000, seed=1)
LARGE = generate_sequence(2_000_000, seed=2)


@pytest.fixture(scope="module")
def expected_small():
    return scan_sequential(DFA, SMALL)


@pytest.fixture(scope="module")
def expected_large():
    return WindowedScanner(DFA).scan(LARGE)


def test_scalar_scan_throughput(benchmark, expected_small):
    result = benchmark(lambda: scan_sequential(DFA, SMALL))
    assert result.total == expected_small.total


def test_windowed_scan_throughput(benchmark, expected_large):
    scanner = WindowedScanner(DFA)
    result = benchmark(lambda: scanner.scan(LARGE))
    assert result.total == expected_large.total
    assert np.array_equal(result.per_pattern, expected_large.per_pattern)


def test_parem_scan_throughput(benchmark, expected_large):
    engine = ParemEngine(DFA)
    result = benchmark(lambda: engine.scan(LARGE, n_chunks=8))
    assert result.total == expected_large.total


def test_windowed_beats_scalar_by_an_order_of_magnitude(expected_small):
    import time

    t0 = time.perf_counter()
    scan_sequential(DFA, SMALL)
    scalar = time.perf_counter() - t0

    scanner = WindowedScanner(DFA)
    scanner.scan(SMALL)  # warm the table
    t0 = time.perf_counter()
    scanner.scan(SMALL)
    vectorized = time.perf_counter() - t0

    assert vectorized < scalar / 5.0
