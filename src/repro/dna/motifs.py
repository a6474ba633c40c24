"""Motif sets: the patterns the DNA analysis searches for.

The paper's application finds *motifs* in large DNA sequences via finite
automata (section II-B).  We provide curated, biologically meaningful
default sets plus a :class:`MotifSet` container that validates patterns
and feeds the Aho-Corasick construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .alphabet import is_valid_motif


@dataclass(frozen=True)
class MotifSet:
    """An ordered, validated collection of distinct motifs."""

    name: str
    patterns: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for p in self.patterns:
            if not is_valid_motif(p):
                raise ValueError(
                    f"invalid motif {p!r}: motifs must be non-empty strings over ACGT"
                )
            upper = p.upper()
            if upper in seen:
                raise ValueError(f"duplicate motif {p!r}")
            seen.add(upper)
        object.__setattr__(self, "patterns", tuple(p.upper() for p in self.patterns))

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[str]:
        return iter(self.patterns)

    def __getitem__(self, i: int) -> str:
        return self.patterns[i]

    def union(self, other: "MotifSet", name: str | None = None) -> "MotifSet":
        """Combine two motif sets, dropping duplicates, preserving order."""
        seen = set(self.patterns)
        merged = list(self.patterns) + [p for p in other.patterns if p not in seen]
        return MotifSet(name or f"{self.name}+{other.name}", tuple(merged))


def motif_set(name: str, patterns: Iterable[str]) -> MotifSet:
    """Build a :class:`MotifSet` from any iterable of patterns."""
    return MotifSet(name, tuple(patterns))


#: Core promoter elements — the classic "motif finding" targets.
PROMOTER_MOTIFS = MotifSet(
    "promoters",
    (
        "TATAAA",   # TATA box
        "CCAAT",    # CAAT box
        "GGGCGG",   # GC box (Sp1)
        "CACGTG",   # E-box
    ),
)

#: Restriction-enzyme recognition sites (6-cutters).
RESTRICTION_SITES = MotifSet(
    "restriction-sites",
    (
        "GAATTC",   # EcoRI
        "GGATCC",   # BamHI
        "AAGCTT",   # HindIII
        "CTGCAG",   # PstI
        "GTCGAC",   # SalI
        "TCTAGA",   # XbaI
    ),
)

#: CpG-island fragments; short and overlap-heavy, stressing failure links.
CPG_MOTIFS = MotifSet(
    "cpg",
    (
        "CG",
        "CGCG",
        "GCGC",
    ),
)

#: Default pattern set of the reproduction's DNA analysis application.
DEFAULT_MOTIFS = PROMOTER_MOTIFS.union(RESTRICTION_SITES, name="default")
