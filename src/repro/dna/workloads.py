"""Named workload registry: the scenarios the tuner can target.

The paper tunes exactly one workload — motif search over DNA genomes on
*Emil* — but the profitable configuration shifts dramatically with input
shape (sequence length, alphabet, pattern set, match density), exactly
as irregular-workload studies on many-core architectures report.  This
registry mirrors :mod:`repro.machines.registry` on the workload axis: a
:class:`WorkloadSpec` describes a scan scenario in application terms and
*derives* the :class:`~repro.machines.perfmodel.WorkloadProfile` that
parameterizes the performance model, the memory/scan roofline, and the
offload-transfer model — replacing the paper's baked-in calibration
constants with a model over the workload's shape.

Built-in workloads
------------------

``dna-paper``
    The paper's DNA sequence analysis, bit-for-bit: its derived profile
    is numerically identical to the historical
    :data:`~repro.machines.perfmodel.DNA_SCAN` constants, so tuner
    results, perf-model timings, and simulator draws are unchanged.
``short-read``
    Adapter screening over a short-read archive: a small divisible
    input, so the workload-fraction grid coarsens (a 2.5 % sliver no
    longer pays for an offload launch).
``long-genome``
    A wheat-scale genome: a huge input where finer workload fractions
    become worth distinguishing, so the fraction grid refines.
``dense-motif``
    Many short motifs: a larger automaton and a high match density that
    depresses scan rates and fattens the device->host result transfer.
``tiny-alphabet``
    Purine/pyrimidine (2-symbol) streams with very dense hits — the
    match-handling cost, not the table, dominates.
``protein-alphabet``
    A 20-symbol proteome scan: wide transition-table rows (large
    footprint per state) but vanishingly rare matches.

``register_workload`` accepts additional specs at runtime (tests use it
for throwaway workloads); registration is idempotent per key.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codec import digest
from ..machines.cache import working_set_kb
from ..machines.perfmodel import (
    DEVICE_THREAD_RATE_MBS,
    HOST_THREAD_RATE_MBS,
    WorkloadProfile,
)
from .motifs import DEFAULT_MOTIFS, MotifSet

#: Extra scan work per expected match, in character-equivalents: each
#: hit updates per-pattern counters and appends an output record.  The
#: rate model divides the paper-calibrated per-thread rate by
#: ``(1 + cost * density)`` *relative to the paper's workload*, so
#: ``dna-paper`` keeps the historical 280 / 37.7 MB/s exactly.
MATCH_RATE_COST = 15.0

#: How strongly match output traffic erodes the scan roofline (result
#: records stream back through the memory system).  Applied the same
#: relative way as :data:`MATCH_RATE_COST`.
MATCH_EFFICIENCY_COST = 6.0

#: Device->host result slab per pattern (counters + match offsets), MB.
RESULT_MB_PER_PATTERN = 1.0 / 10_000.0


def expected_match_density(pattern_lengths: tuple[int, ...], alphabet_size: int) -> float:
    """Expected matches per scanned character over a uniform random text.

    A length-``n`` pattern matches a uniform position with probability
    ``alphabet_size ** -n``; densities add across patterns (linearity of
    expectation — overlaps do not matter for the mean).
    """
    if alphabet_size < 2:
        raise ValueError(f"alphabet_size must be >= 2, got {alphabet_size}")
    return float(sum(alphabet_size ** -int(n) for n in pattern_lengths))


@dataclass(frozen=True)
class WorkloadSpec:
    """One scan scenario, described in application terms.

    Attributes
    ----------
    name:
        Registry display name (lower-case key by convention).
    sequence_mb:
        Size of the divisible input, MB — the default tuning size and
        the knob that grows or shrinks viable workload-fraction chunks
        (see :func:`repro.core.params.workload_space`).
    alphabet_size:
        Symbols per input character (4 for DNA, 20 for protein); sets
        the transition-table row width.
    pattern_lengths:
        Lengths of the searched patterns; their sum drives the
        automaton state count, their individual values the expected
        match density.
    match_density:
        Expected matches per scanned character.  Defaults to the
        uniform-text expectation over ``pattern_lengths``; pass an
        explicit value for biased texts (e.g. CpG islands).
    state_sharing:
        Fraction of trie states merged by shared pattern prefixes, in
        [0, 1): the automaton state-count model is
        ``1 + alphabet_size + (1 - state_sharing) * total pattern chars``.
    transfer_overlap:
        Fraction of the input PCIe transfer hidden behind compute
        (smaller for workloads streamed as many small buffers).
    description:
        One-line registry note.
    """

    name: str
    sequence_mb: float = 3170.0
    alphabet_size: int = 4
    pattern_lengths: tuple[int, ...] = ()
    match_density: float | None = None
    state_sharing: float = 0.0
    transfer_overlap: float = 0.6
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ValueError("workload name must be non-empty")
        if self.sequence_mb <= 0:
            raise ValueError(f"sequence_mb must be positive, got {self.sequence_mb}")
        if self.alphabet_size < 2:
            raise ValueError(f"alphabet_size must be >= 2, got {self.alphabet_size}")
        if not self.pattern_lengths or any(n <= 0 for n in self.pattern_lengths):
            raise ValueError("pattern_lengths must be non-empty and positive")
        if not 0.0 <= self.state_sharing < 1.0:
            raise ValueError(f"state_sharing must be in [0, 1), got {self.state_sharing}")
        if not 0.0 <= self.transfer_overlap <= 1.0:
            raise ValueError(
                f"transfer_overlap must be in [0, 1], got {self.transfer_overlap}"
            )
        if self.match_density is None:
            object.__setattr__(
                self,
                "match_density",
                expected_match_density(self.pattern_lengths, self.alphabet_size),
            )
        elif self.match_density < 0:
            raise ValueError(f"match_density must be >= 0, got {self.match_density}")

    @classmethod
    def from_motifs(
        cls,
        name: str,
        motifs: MotifSet,
        *,
        sequence_mb: float = 3170.0,
        description: str = "",
    ) -> "WorkloadSpec":
        """Derive a DNA-alphabet spec from a concrete
        :class:`~repro.dna.motifs.MotifSet` (the other fields keep their
        defaults)."""
        return cls(
            name=name,
            sequence_mb=sequence_mb,
            pattern_lengths=tuple(len(p) for p in motifs),
            description=description,
        )

    # -- derived automaton / transfer model ---------------------------------

    @property
    def n_patterns(self) -> int:
        """Number of searched patterns."""
        return len(self.pattern_lengths)

    @property
    def total_pattern_chars(self) -> int:
        """Sum of pattern lengths (upper-bounds the trie size)."""
        return int(sum(self.pattern_lengths))

    @property
    def automaton_states(self) -> int:
        """State-count model: root + one fan-out level + unshared chars."""
        return 1 + self.alphabet_size + round(
            (1.0 - self.state_sharing) * self.total_pattern_chars
        )

    @property
    def table_kb(self) -> float:
        """Dense transition-table footprint (drives the cache model)."""
        return working_set_kb(self.automaton_states, self.alphabet_size)

    @property
    def result_mb(self) -> float:
        """Device->host result transfer for one offload region."""
        return self.n_patterns * RESULT_MB_PER_PATTERN

    # -- derived rate / roofline model --------------------------------------

    def _relative_density_factor(self, cost: float) -> float:
        """``(1 + cost*ref) / (1 + cost*density)``, 1.0 at the paper's workload."""
        ref = DNA_REFERENCE_MATCH_DENSITY
        return (1.0 + cost * ref) / (1.0 + cost * float(self.match_density))

    @property
    def rate_factor(self) -> float:
        """Single-thread scan-rate multiplier relative to ``dna-paper``."""
        return self._relative_density_factor(MATCH_RATE_COST)

    @property
    def scan_efficiency_scale(self) -> float:
        """Scan-roofline multiplier relative to ``dna-paper``."""
        return self._relative_density_factor(MATCH_EFFICIENCY_COST)

    def content_digest(self) -> str:
        """Stable digest of the spec's full content.

        Dataclass ``repr`` is deterministic and spells out every field,
        so equal specs collide and any change to a measured quantity
        (density, alphabet, pattern histogram) yields a fresh digest.
        Derived workloads (namespaced keys, see :func:`register_workload`)
        are canonicalized by this in service request identities
        (:meth:`repro.service.store.CellKey.for_request`) — their *name*
        alone does not pin their content the way a built-in's does.
        """
        return digest(self)

    def profile(self) -> WorkloadProfile:
        """The performance-model handle this scenario derives.

        For ``dna-paper`` every field is numerically identical to the
        historical :data:`~repro.machines.perfmodel.DNA_SCAN` constants
        (regression-tested), so the paper's results are preserved
        bit-for-bit through the registry path.
        """
        factor = self.rate_factor
        return WorkloadProfile(
            name=self.name,
            host_rate_mbs=HOST_THREAD_RATE_MBS * factor,
            device_rate_mbs=DEVICE_THREAD_RATE_MBS * factor,
            table_kb=self.table_kb,
            result_mb=self.result_mb,
            transfer_overlap=self.transfer_overlap,
            scan_efficiency_scale=self.scan_efficiency_scale,
        )


# --- the built-in scenarios -------------------------------------------------

#: The paper's workload: 10 promoter/restriction motifs over the 3.17 GB
#: human genome.  Its expected match density doubles as the reference
#: point of the relative rate/roofline model, so the derived profile is
#: *exactly* the historical calibration.
DNA_PAPER = WorkloadSpec.from_motifs(
    "dna-paper",
    DEFAULT_MOTIFS,
    sequence_mb=3170.0,
    description="the paper's DNA motif scan (human genome, Table I workload)",
)

#: Reference match density of the relative rate model (the paper's
#: workload by construction — keeping ``dna-paper`` bit-identical).
DNA_REFERENCE_MATCH_DENSITY = expected_match_density(
    DNA_PAPER.pattern_lengths, DNA_PAPER.alphabet_size
)

#: Adapter screening over a short-read archive: six length-12 adapters,
#: a small divisible input, and poor transfer overlap (many small
#: buffers instead of one long stream).
SHORT_READ = WorkloadSpec(
    name="short-read",
    sequence_mb=300.0,
    alphabet_size=4,
    pattern_lengths=(12,) * 6,
    transfer_overlap=0.45,
    description="adapter screen over a 300 MB short-read archive",
)

#: A wheat-scale genome scanned with the paper's motif set: same rates,
#: but a much larger divisible input.
LONG_GENOME = WorkloadSpec(
    name="long-genome",
    sequence_mb=24000.0,
    alphabet_size=4,
    pattern_lengths=DNA_PAPER.pattern_lengths,
    description="wheat-scale 24 GB genome, paper motif set",
)

#: Many short motifs: 60 patterns of length 4-6 over DNA.  Hits are ~30x
#: denser than the paper's workload, depressing scan rates and the
#: roofline and fattening the result transfer.
DENSE_MOTIF = WorkloadSpec(
    name="dense-motif",
    sequence_mb=3170.0,
    alphabet_size=4,
    pattern_lengths=(4,) * 20 + (5,) * 20 + (6,) * 20,
    state_sharing=0.2,
    description="60 short motifs, dense hits, larger automaton",
)

#: Purine/pyrimidine (R/Y) binary streams: a tiny alphabet makes short
#: patterns extremely dense, so match handling dominates the scan.
TINY_ALPHABET = WorkloadSpec(
    name="tiny-alphabet",
    sequence_mb=1500.0,
    alphabet_size=2,
    pattern_lengths=(4, 5, 5, 6),
    description="binary purine/pyrimidine stream, match-bound",
)

#: Proteome scan: 25 length-9 patterns over a 20-symbol alphabet.  Wide
#: table rows (big footprint per state) but matches are vanishingly rare.
PROTEIN_ALPHABET = WorkloadSpec(
    name="protein-alphabet",
    sequence_mb=900.0,
    alphabet_size=20,
    pattern_lengths=(9,) * 25,
    state_sharing=0.1,
    description="20-symbol proteome scan, wide table rows, rare hits",
)

#: Registry storage: lower-case key -> spec, in registration order.
WORKLOADS: dict[str, WorkloadSpec] = {}

#: Default registry key (the paper's workload).
DEFAULT_WORKLOAD_KEY = "dna-paper"


def is_derived_key(key: str) -> bool:
    """True for namespaced (data-derived) registry keys like ``fasta:x``.

    Built-in workloads have plain names; workloads derived from data at
    runtime (FASTA ingestion, :mod:`repro.dna.ingest`) use namespaced
    ``<namespace>:<name>[:<variant>]`` keys.  The distinction matters
    for caching: a derived key's *name* does not pin its content across
    processes, so request identities add the spec's
    :meth:`~WorkloadSpec.content_digest`.
    """
    return ":" in key


def _validate_key(key: str) -> str:
    """Enforce the registry key convention (see :func:`register_workload`)."""
    if not key:
        raise ValueError("workload key must be non-empty")
    if ":" in key:
        segments = key.split(":")
        if any(not segment.strip() for segment in segments):
            raise ValueError(
                f"namespaced workload key {key!r} has an empty segment; "
                "derived keys are '<namespace>:<name>' or "
                "'<namespace>:<name>:<variant>'"
            )
    return key


def register_workload(spec: WorkloadSpec, *, key: str | None = None) -> WorkloadSpec:
    """Register ``spec`` under ``key`` (default: its lower-cased name).

    Re-registering the same key with the same spec is a no-op; a
    different spec under an existing key raises, so names stay
    unambiguous.

    Key convention: built-in (hand-authored) workloads use plain
    lower-case names (``dna-paper``).  Workloads *derived from data* use
    namespaced keys — ``<namespace>:<name>`` with an optional
    ``:<variant>`` suffix, e.g. the FASTA ingestion pipeline's
    ``fasta:<name>`` positive set and ``fasta:<name>:shuffled``
    background (:mod:`repro.dna.ingest`).  Namespaced keys must have
    non-empty segments; the namespace tells consumers the workload's
    content is data-dependent, so caches key it by content digest
    rather than by name (see :func:`is_derived_key`).
    """
    key = _validate_key((key if key is not None else spec.name).strip().lower())
    existing = WORKLOADS.get(key)
    if existing is not None and existing != spec:
        raise ValueError(f"workload key {key!r} already registered for {existing.name!r}")
    WORKLOADS[key] = spec
    return spec


def workload_names() -> tuple[str, ...]:
    """Registered workload keys, in registration order."""
    return tuple(WORKLOADS)


def all_workloads() -> tuple[WorkloadSpec, ...]:
    """All registered specs, in registration order."""
    return tuple(WORKLOADS.values())


def get_workload(name: str | WorkloadSpec) -> WorkloadSpec:
    """Resolve a workload by registry key or display name (case-insensitive).

    Passing a :class:`WorkloadSpec` returns it unchanged, so APIs can
    accept either form.
    """
    if isinstance(name, WorkloadSpec):
        return name
    key = name.strip().lower()
    spec = WORKLOADS.get(key)
    if spec is None:
        for candidate in WORKLOADS.values():
            if candidate.name.lower() == key:
                return candidate
        known = ", ".join(workload_names())
        raise ValueError(f"unknown workload {name!r}; registered workloads: {known}")
    return spec


def resolve_workload(
    workload: "str | WorkloadSpec | WorkloadProfile",
) -> "tuple[WorkloadSpec | None, WorkloadProfile]":
    """Resolve any workload handle to ``(spec or None, profile)``.

    Accepts a registry name, a :class:`WorkloadSpec`, or an explicit
    :class:`~repro.machines.perfmodel.WorkloadProfile`, so substrate
    APIs can take all three.  The spec is ``None`` only for raw
    profiles, which carry no registry identity (and hence no input
    scale for space fitting or training-size rescaling).
    """
    if isinstance(workload, WorkloadProfile):
        return None, workload
    spec = get_workload(workload)
    return spec, spec.profile()


def workload_profile(
    workload: "str | WorkloadSpec | WorkloadProfile",
) -> WorkloadProfile:
    """Resolve any workload handle to its performance-model profile."""
    return resolve_workload(workload)[1]


register_workload(DNA_PAPER, key=DEFAULT_WORKLOAD_KEY)
register_workload(SHORT_READ)
register_workload(LONG_GENOME)
register_workload(DENSE_MOTIF)
register_workload(TINY_ALPHABET)
register_workload(PROTEIN_ALPHABET)
