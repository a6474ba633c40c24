"""FASTA -> :class:`~repro.dna.workloads.WorkloadSpec` ingestion.

The registry's built-in workloads are synthetic parameter sets; this
module derives workload specs from *real sequence data* so the
performance model meets alphabet distributions, automaton state counts,
and match densities it was never calibrated on.  The pipeline, per
FASTA input:

1. **Measure** — read every record (:func:`~repro.dna.sequence.read_fasta_records`),
   accumulate the alphabet distribution / GC and composition bias
   (:class:`SequenceStats`), scan the records against a pattern set to
   get the *measured* match density, build the actual scan automata to
   get the *measured* state count, and histogram the pattern lengths.
2. **Derive** — fit a validated :class:`~repro.dna.workloads.WorkloadSpec`
   to the measurements: IUPAC ambiguity codes
   (:data:`~repro.dna.regex.IUPAC_CODES`) expand both the effective
   alphabet (each distinct ambiguity letter is one more symbol the
   automaton must distinguish) and the effective pattern lengths (an
   ambiguous position contributes one trie branch per base it stands
   for), and ``state_sharing`` is fitted so the spec's state-count
   model reproduces the automata actually built.
3. **Pair** — generate a dinucleotide-shuffled background from the
   positive records (Altschul–Erickson, :func:`dinucleotide_shuffle`:
   exact dinucleotide counts preserved, deterministic under a fixed
   seed) and derive its spec the same way.  Positive vs shuffled
   background is the DREME-style *discriminative* motif-scan scenario:
   the backgrounds keep composition and dinucleotide bias but destroy
   motif occurrences beyond chance, so the density gap is the signal.

:func:`register_ingest` publishes the pair under namespaced registry
keys — ``fasta:<name>`` and ``fasta:<name>:shuffled`` (the derived-key
convention of :func:`~repro.dna.workloads.register_workload`) — after
which they are first-class scenario-matrix cells for
:func:`~repro.core.campaign.tune_scenario` /
:func:`~repro.core.campaign.tune_matrix` and the campaign service.
See ``docs/workloads.md`` for the full pipeline contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alphabet import BASES
from .automaton import build_automaton
from .matching import scan_sequential
from .motifs import DEFAULT_MOTIFS, MotifSet
from .regex import IUPAC_CODES, compile_regex
from .sequence import read_fasta_records, read_fasta_records_string
from .workloads import WorkloadSpec, register_workload

#: Namespace of FASTA-derived registry keys (``fasta:<name>``).
FASTA_NAMESPACE = "fasta"

#: Variant suffix of the dinucleotide-shuffled background workload.
SHUFFLED_VARIANT = "shuffled"

#: Bytes per model megabyte (sequence codes are one byte per base).
_BASES_PER_MB = 1_000_000.0

#: Ceiling for fitted prefix sharing — ``WorkloadSpec`` requires
#: ``state_sharing < 1``, and real pattern sets never share everything.
_MAX_STATE_SHARING = 0.95

#: Degenerate (IUPAC consensus) promoter motifs scanned by default next
#: to the exact :data:`~repro.dna.motifs.DEFAULT_MOTIFS` — the ambiguity
#: path of the pipeline: TATA box, E-box, CAAT box, GC box consensi.
DEGENERATE_MOTIFS: tuple[str, ...] = (
    "TATAWAWR",
    "CANNTG",
    "GGYCAATCT",
    "KGGGCGGRRY",
)

#: Default ingestion pattern set: the exact default motifs plus the
#: degenerate consensi.
DEFAULT_SCAN_PATTERNS: tuple[str, ...] = tuple(DEFAULT_MOTIFS) + DEGENERATE_MOTIFS

#: The bundled sample FASTA (a small promoter-region positive set with
#: planted motifs; see ``docs/workloads.md``) — the CLI's default
#: ``repro ingest`` input and the golden file of the round-trip tests.
BUNDLED_FASTA = Path(__file__).resolve().parent / "data" / "sample_promoters.fa"


def derived_key(name: str, variant: str | None = None) -> str:
    """The registry key of a FASTA-derived workload.

    ``derived_key("x")`` -> ``fasta:x``;
    ``derived_key("x", "shuffled")`` -> ``fasta:x:shuffled``.
    """
    name = name.strip().lower()
    if not name or ":" in name:
        raise ValueError(f"ingest name must be non-empty and ':'-free, got {name!r}")
    key = f"{FASTA_NAMESPACE}:{name}"
    if variant is not None:
        key = f"{key}:{variant}"
    return key


# --- measurement -------------------------------------------------------------


@dataclass(frozen=True)
class SequenceStats:
    """Measured alphabet distribution of one or more sequence records."""

    n_records: int
    n_bases: int
    base_counts: tuple[int, int, int, int]  # A, C, G, T occurrences
    unknown_bases: int

    def __post_init__(self) -> None:
        if self.n_records < 1:
            raise ValueError(f"n_records must be >= 1, got {self.n_records}")
        counted = sum(self.base_counts) + self.unknown_bases
        if counted != self.n_bases:
            raise ValueError(
                f"base counts sum to {counted}, expected n_bases={self.n_bases}"
            )
        if self.n_bases <= 0:
            raise ValueError("ingested records contain no bases")

    @property
    def megabytes(self) -> float:
        """Input size as the model's MB unit (one byte per base)."""
        return self.n_bases / _BASES_PER_MB

    @property
    def gc_content(self) -> float:
        """G+C fraction among canonical bases."""
        canonical = sum(self.base_counts)
        if canonical == 0:
            return 0.0
        return (self.base_counts[1] + self.base_counts[2]) / canonical

    @property
    def unknown_rate(self) -> float:
        """Fraction of non-ACGT symbols (``N`` and friends)."""
        return self.unknown_bases / self.n_bases

    @property
    def composition(self) -> tuple[float, float, float, float]:
        """Per-base fractions (A, C, G, T) among canonical bases."""
        canonical = sum(self.base_counts)
        if canonical == 0:
            return (0.0, 0.0, 0.0, 0.0)
        return tuple(c / canonical for c in self.base_counts)


def sequence_stats(records: tuple[np.ndarray, ...]) -> SequenceStats:
    """Accumulate alphabet statistics over code arrays (one per record)."""
    counts = np.zeros(5, dtype=np.int64)
    total = 0
    for codes in records:
        codes = np.asarray(codes)
        total += int(codes.size)
        counts += np.bincount(codes, minlength=5)[:5]
    return SequenceStats(
        n_records=len(records),
        n_bases=total,
        base_counts=tuple(int(c) for c in counts[:4]),
        unknown_bases=int(counts[4]),
    )


def _validated_patterns(patterns) -> tuple[str, ...]:
    """Upper-cased, de-duplicated IUPAC patterns (order preserved)."""
    out: list[str] = []
    seen: set[str] = set()
    for pattern in patterns:
        upper = str(pattern).strip().upper()
        if not upper:
            raise ValueError("scan patterns must be non-empty")
        bad = [ch for ch in upper if ch not in IUPAC_CODES]
        if bad:
            raise ValueError(
                f"pattern {pattern!r} has non-IUPAC symbols {bad!r}; "
                f"allowed: {''.join(IUPAC_CODES)}"
            )
        if upper not in seen:
            seen.add(upper)
            out.append(upper)
    if not out:
        raise ValueError("ingestion needs at least one scan pattern")
    return tuple(out)


def effective_pattern_length(pattern: str) -> int:
    """IUPAC-expanded length: one trie branch per base an ambiguity code
    stands for (``CANNTG`` -> 12), exact patterns keep their length."""
    return sum(len(IUPAC_CODES[ch]) for ch in pattern.upper())


def effective_alphabet_size(patterns: tuple[str, ...]) -> int:
    """Symbols the scan automaton must distinguish: the four canonical
    bases plus one per *distinct* ambiguity code used by the patterns."""
    ambiguity = {
        ch for p in patterns for ch in p.upper() if len(IUPAC_CODES[ch]) > 1
    }
    return len(BASES) + len(ambiguity)


def pattern_length_histogram(patterns: tuple[str, ...]) -> tuple[tuple[int, int], ...]:
    """``(length, count)`` pairs of the literal pattern lengths, sorted."""
    histogram: dict[int, int] = {}
    for pattern in patterns:
        histogram[len(pattern)] = histogram.get(len(pattern), 0) + 1
    return tuple(sorted(histogram.items()))


def _split_patterns(patterns: tuple[str, ...]) -> tuple[MotifSet | None, tuple[str, ...]]:
    """Partition into (exact motif set, ambiguous IUPAC patterns)."""
    exact = [p for p in patterns if all(ch in BASES for ch in p)]
    ambiguous = tuple(p for p in patterns if p not in exact)
    return (MotifSet("ingest-exact", tuple(exact)) if exact else None), ambiguous


def measure_matches(
    records: tuple[np.ndarray, ...], patterns: tuple[str, ...]
) -> tuple[int, int]:
    """Scan records against the pattern set -> (matches, automaton states).

    Exact (ACGT-only) patterns run through one shared Aho–Corasick
    automaton; IUPAC patterns each compile to a DFA via
    :func:`~repro.dna.regex.compile_regex`.  Matches are counted as
    match-ending positions per record (occurrences never span record
    boundaries).  The state count is the total across the automata
    actually built — the measured quantity ``state_sharing`` is fitted
    against — counting the shared root once.
    """
    exact, ambiguous = _split_patterns(patterns)
    automata = []
    if exact is not None:
        automata.append(build_automaton(exact))
    automata.extend(compile_regex(p).dfa for p in ambiguous)
    matches = 0
    for codes in records:
        codes = np.asarray(codes)
        if codes.size == 0:
            continue
        for dfa in automata:
            matches += int(scan_sequential(dfa, codes).total)
    states = sum(dfa.n_states for dfa in automata) - (len(automata) - 1)
    return matches, states


def _fitted_state_sharing(
    measured_states: int, alphabet_size: int, total_effective_chars: int
) -> float:
    """Fit ``state_sharing`` so the spec's state model hits the measured
    count; clamped to the spec's valid range (real automata can exceed
    the linear model — subset construction on dense ambiguity — in
    which case sharing bottoms out at 0)."""
    unshared = measured_states - 1 - alphabet_size
    sharing = 1.0 - unshared / total_effective_chars
    return min(max(sharing, 0.0), _MAX_STATE_SHARING)


# --- dinucleotide-shuffled backgrounds ---------------------------------------


def dinucleotide_counts(codes: np.ndarray) -> dict[tuple[int, int], int]:
    """Occurrences of each adjacent code pair (the shuffle invariant)."""
    codes = np.asarray(codes)
    counts: dict[tuple[int, int], int] = {}
    for a, b in zip(codes[:-1].tolist(), codes[1:].tolist()):
        counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def dinucleotide_shuffle(codes: np.ndarray, *, seed: int = 0) -> np.ndarray:
    """Shuffle a sequence preserving its exact dinucleotide counts.

    The Altschul–Erickson algorithm (the one behind DREME's
    ``fasta-dinucleotide-shuffle``): treat each symbol as a vertex and
    each adjacent pair as a directed edge, sample a random Eulerian
    path with the original first/last symbols fixed, and emit it.  The
    result has identical mono- *and* dinucleotide counts, so
    composition bias and CpG-style neighbor structure survive while
    motif occurrences beyond chance are destroyed — the discriminative
    background of a DREME-style scan.  Deterministic for a fixed
    ``seed``; sequences shorter than 3 bases return unchanged copies.
    """
    codes = np.asarray(codes)
    n = int(codes.size)
    if n < 3:
        return codes.copy()
    rng = np.random.default_rng(seed)
    seq = codes.tolist()
    first, last = seq[0], seq[-1]
    edges: dict[int, list[int]] = {}
    for a, b in zip(seq[:-1], seq[1:]):
        edges.setdefault(a, []).append(b)

    # Choose each vertex's *final* exit edge so that following final
    # edges always reaches the terminal vertex (the Eulerian-path
    # condition).  Random proposals are retried; the original
    # sequence's own last-exit edges are a guaranteed-valid fallback
    # (the original walk itself ends at `last`), keeping this total.
    def connected(last_edge: dict[int, int]) -> bool:
        for v in last_edge:
            hops = 0
            while v != last:
                v = last_edge[v]
                hops += 1
                if hops > len(edges) + 1:
                    return False
        return True

    last_edge: dict[int, int] = {}
    for _ in range(64):
        last_edge = {
            v: targets[int(rng.integers(len(targets)))]
            for v, targets in edges.items()
            if v != last
        }
        if connected(last_edge):
            break
    else:  # fallback: the original sequence's final exit per vertex
        seen: dict[int, int] = {}
        for a, b in zip(seq[:-1], seq[1:]):
            seen[a] = b
        last_edge = {v: t for v, t in seen.items() if v != last}

    shuffled: dict[int, list[int]] = {}
    for v, targets in edges.items():
        remaining = list(targets)
        if v in last_edge:
            remaining.remove(last_edge[v])
        order = rng.permutation(len(remaining))
        shuffled[v] = [remaining[i] for i in order]
        if v in last_edge:
            shuffled[v].append(last_edge[v])

    out = [first]
    cursor = {v: 0 for v in shuffled}
    v = first
    for _ in range(n - 1):
        i = cursor[v]
        cursor[v] = i + 1
        v = shuffled[v][i]
        out.append(v)
    return np.array(out, dtype=np.uint8)


def shuffled_records(
    records: tuple[np.ndarray, ...], *, seed: int = 0
) -> tuple[np.ndarray, ...]:
    """Per-record dinucleotide shuffles, seeded per record index so the
    whole background is deterministic under one ``seed``."""
    return tuple(
        dinucleotide_shuffle(
            codes,
            seed=int(np.random.SeedSequence([seed, i]).generate_state(1)[0]),
        )
        for i, codes in enumerate(records)
    )


# --- the ingest report -------------------------------------------------------


@dataclass(frozen=True)
class IngestReport:
    """Everything one FASTA ingestion measured and derived.

    ``workload`` is the positive set's spec (named ``fasta:<name>``),
    ``background`` the dinucleotide-shuffled twin
    (``fasta:<name>:shuffled``).  ``match_density`` /
    ``background_density`` are *measured* matches per scanned base —
    their gap (:meth:`enrichment`) is the discriminative motif-scan
    signal.
    """

    name: str
    headers: tuple[str, ...]
    stats: SequenceStats
    patterns: tuple[str, ...]
    length_histogram: tuple[tuple[int, int], ...]
    alphabet_size: int
    automaton_states: int
    match_density: float
    background_density: float
    shuffle_seed: int
    workload: WorkloadSpec
    background: WorkloadSpec

    @property
    def positive_key(self) -> str:
        """Registry key of the positive workload (``fasta:<name>``)."""
        return derived_key(self.name)

    @property
    def background_key(self) -> str:
        """Registry key of the shuffled background workload."""
        return derived_key(self.name, SHUFFLED_VARIANT)

    def enrichment(self) -> float:
        """Positive over background match density (>1 = motifs enriched).

        ``inf`` when the background has zero matches but the positive
        set does not; 1.0 when both are zero (no signal either way).
        """
        if self.background_density == 0.0:
            return 1.0 if self.match_density == 0.0 else float("inf")
        return self.match_density / self.background_density


def _derive_spec(
    key: str,
    stats: SequenceStats,
    patterns: tuple[str, ...],
    measured_matches: int,
    measured_states: int,
    *,
    sequence_mb: float | None,
    description: str,
) -> WorkloadSpec:
    """Fit one validated spec to the measurements (see module docstring)."""
    effective_lengths = tuple(effective_pattern_length(p) for p in patterns)
    alphabet = effective_alphabet_size(patterns)
    sharing = _fitted_state_sharing(measured_states, alphabet, sum(effective_lengths))
    return WorkloadSpec(
        name=key,
        sequence_mb=float(sequence_mb) if sequence_mb is not None else stats.megabytes,
        alphabet_size=alphabet,
        pattern_lengths=effective_lengths,
        match_density=measured_matches / stats.n_bases,
        state_sharing=sharing,
        # Single-record dumps stream as one long buffer (the paper's
        # overlap); many short records behave like the short-read
        # archive's small-buffer streaming.
        transfer_overlap=0.6 if stats.n_records == 1 else 0.45,
        description=description,
    )


def ingest_records(
    records: tuple[tuple[str, np.ndarray], ...],
    *,
    name: str,
    patterns=DEFAULT_SCAN_PATTERNS,
    sequence_mb: float | None = None,
    shuffle_seed: int = 0,
) -> IngestReport:
    """Run the measurement pipeline over parsed ``(header, codes)`` records.

    ``sequence_mb`` overrides the derived input scale (default: the
    records' actual size) for modelling a sample as a stand-in for a
    full-scale input; ``shuffle_seed`` pins the background generation.
    """
    derived_key(name)  # validate the name early
    patterns = _validated_patterns(patterns)
    headers = tuple(h for h, _ in records)
    positive = tuple(np.asarray(c) for _, c in records)
    stats = sequence_stats(positive)

    matches, states = measure_matches(positive, patterns)
    background = shuffled_records(positive, seed=shuffle_seed)
    bg_matches, _bg_states = measure_matches(background, patterns)
    bg_stats = sequence_stats(background)

    positive_spec = _derive_spec(
        derived_key(name),
        stats,
        patterns,
        matches,
        states,
        sequence_mb=sequence_mb,
        description=f"FASTA positive set ({stats.n_records} records, "
        f"GC {stats.gc_content:.2f})",
    )
    background_spec = _derive_spec(
        derived_key(name, SHUFFLED_VARIANT),
        bg_stats,
        patterns,
        bg_matches,
        states,
        sequence_mb=sequence_mb,
        description=f"dinucleotide-shuffled background of fasta:{name} "
        f"(seed {shuffle_seed})",
    )
    return IngestReport(
        name=name.strip().lower(),
        headers=headers,
        stats=stats,
        patterns=patterns,
        length_histogram=pattern_length_histogram(patterns),
        alphabet_size=positive_spec.alphabet_size,
        automaton_states=states,
        match_density=positive_spec.match_density,
        background_density=background_spec.match_density,
        shuffle_seed=shuffle_seed,
        workload=positive_spec,
        background=background_spec,
    )


def ingest_fasta(
    path: str | Path,
    *,
    name: str | None = None,
    patterns=DEFAULT_SCAN_PATTERNS,
    sequence_mb: float | None = None,
    shuffle_seed: int = 0,
) -> IngestReport:
    """Ingest a FASTA file (``name`` defaults to the file's stem)."""
    path = Path(path)
    return ingest_records(
        read_fasta_records(path),
        name=name if name is not None else path.stem,
        patterns=patterns,
        sequence_mb=sequence_mb,
        shuffle_seed=shuffle_seed,
    )


def ingest_fasta_string(
    text: str,
    *,
    name: str,
    patterns=DEFAULT_SCAN_PATTERNS,
    sequence_mb: float | None = None,
    shuffle_seed: int = 0,
) -> IngestReport:
    """Ingest FASTA content from a string (tests and examples)."""
    return ingest_records(
        read_fasta_records_string(text),
        name=name,
        patterns=patterns,
        sequence_mb=sequence_mb,
        shuffle_seed=shuffle_seed,
    )


def register_ingest(report: IngestReport) -> tuple[str, str]:
    """Register the positive/background pair under their derived keys.

    Idempotent for identical content (re-ingesting the same file is a
    no-op); a *different* spec under an existing key raises, exactly
    like any other registry conflict.  Returns the registered keys.
    """
    register_workload(report.workload, key=report.positive_key)
    register_workload(report.background, key=report.background_key)
    return report.positive_key, report.background_key


__all__ = [
    "BUNDLED_FASTA",
    "DEFAULT_SCAN_PATTERNS",
    "DEGENERATE_MOTIFS",
    "FASTA_NAMESPACE",
    "SHUFFLED_VARIANT",
    "IngestReport",
    "SequenceStats",
    "derived_key",
    "dinucleotide_counts",
    "dinucleotide_shuffle",
    "effective_alphabet_size",
    "effective_pattern_length",
    "ingest_fasta",
    "ingest_fasta_string",
    "ingest_records",
    "measure_matches",
    "pattern_length_histogram",
    "register_ingest",
    "sequence_stats",
    "shuffled_records",
]
