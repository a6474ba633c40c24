"""Synthetic genomes and FASTA I/O.

The paper evaluates on GenBank genomes of human (3.17 GB), mouse
(2.77 GB), cat (2.43 GB) and dog (2.38 GB).  Offline we substitute
seeded synthetic sequences with matching GC content; the scheduler and
performance model only care about the *size* of the divisible workload,
which we keep in MB as a model parameter while the executable engine
operates on MB-scale real buffers (DESIGN.md section 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alphabet import BASES, encode


@dataclass(frozen=True)
class GenomeSpec:
    """A named genome workload: model size (MB) plus generation parameters."""

    name: str
    size_mb: float
    gc_content: float
    seed: int

    def __post_init__(self) -> None:
        if self.size_mb <= 0:
            raise ValueError(f"size_mb must be positive, got {self.size_mb}")
        if not 0.0 < self.gc_content < 1.0:
            raise ValueError(f"gc_content must be in (0, 1), got {self.gc_content}")


#: The paper's four evaluation genomes (section IV-A), GenBank sizes.
GENOMES: dict[str, GenomeSpec] = {
    "human": GenomeSpec("human", 3170.0, 0.41, seed=101),
    "mouse": GenomeSpec("mouse", 2770.0, 0.42, seed=102),
    "cat": GenomeSpec("cat", 2430.0, 0.42, seed=103),
    "dog": GenomeSpec("dog", 2380.0, 0.41, seed=104),
}

#: Evaluation order used throughout the paper's tables.
GENOME_ORDER = ("human", "mouse", "cat", "dog")


def generate_sequence(
    n_bases: int,
    *,
    gc: float = 0.41,
    seed: int = 0,
    unknown_rate: float = 0.0,
) -> np.ndarray:
    """Generate ``n_bases`` of synthetic DNA as a ``uint8`` code array.

    Base frequencies follow the requested GC content with the AT and GC
    halves split evenly (adequate for scan benchmarks; motif hit rates
    then depend only on motif length and composition).  ``unknown_rate``
    injects 'N' bases to exercise the automaton's unknown-symbol path.
    """
    if n_bases < 0:
        raise ValueError(f"n_bases must be >= 0, got {n_bases}")
    if not 0.0 <= unknown_rate < 1.0:
        raise ValueError(f"unknown_rate must be in [0, 1), got {unknown_rate}")
    rng = np.random.default_rng(seed)
    at = (1.0 - gc) / 2.0
    gc_half = gc / 2.0
    probs = np.array([at, gc_half, gc_half, at])
    codes = rng.choice(4, size=n_bases, p=probs).astype(np.uint8)
    if unknown_rate > 0.0 and n_bases > 0:
        mask = rng.random(n_bases) < unknown_rate
        codes[mask] = 4
    return codes


def genome_sample(spec: GenomeSpec, n_bases: int = 1_000_000) -> np.ndarray:
    """A reproducible sample of a named genome for the executable engine."""
    return generate_sequence(n_bases, gc=spec.gc_content, seed=spec.seed)


def _parse_fasta_records(lines) -> list[tuple[str, np.ndarray]]:
    """Shared multi-record FASTA parser over an iterable of byte lines."""
    records: list[tuple[str, list[bytes]]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line.startswith(b">"):
            header = line[1:].decode("ascii", errors="replace")
            records.append((header, []))
            continue
        if not records:
            raise ValueError("not a FASTA input (sequence before any '>' header)")
        records[-1][1].append(line)
    if not records:
        raise ValueError("not a FASTA input (no '>' header)")
    return [(header, encode(b"".join(chunks))) for header, chunks in records]


def read_fasta_records(path: str | Path) -> tuple[tuple[str, np.ndarray], ...]:
    """Read *every* record of a FASTA file -> ((header, codes), ...).

    Ingestion (:mod:`repro.dna.ingest`) measures workload statistics
    over all records (a positive set is typically many short sequences).
    """
    with open(path, "rb") as fh:
        return tuple(_parse_fasta_records(fh))


def read_fasta_records_string(text: str) -> tuple[tuple[str, np.ndarray], ...]:
    """Parse every FASTA record from a string (tests and examples)."""
    return tuple(_parse_fasta_records(line.encode("ascii") for line in text.splitlines()))


def fraction_bases(total_bases: int, percent: float) -> int:
    """Number of bases in a ``percent`` share of a sequence (round half up).

    Used when splitting the real buffer between host and device workers;
    guarantees ``fraction_bases(n, p) + fraction_bases(n, 100 - p) == n``
    is *not* required — the partitioner computes the complement share as
    the remainder to keep the total exact.
    """
    if not 0.0 <= percent <= 100.0:
        raise ValueError(f"percent must be in [0, 100], got {percent}")
    if total_bases < 0:
        raise ValueError(f"total_bases must be >= 0, got {total_bases}")
    return int(round(total_bases * percent / 100.0))


__all__ = [
    "BASES",
    "GENOMES",
    "GENOME_ORDER",
    "GenomeSpec",
    "fraction_bases",
    "generate_sequence",
    "genome_sample",
    "read_fasta_records",
    "read_fasta_records_string",
]
