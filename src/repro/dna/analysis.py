"""End-to-end DNA sequence analysis application.

This is the reproduction's equivalent of the paper's PaREM-generated
DNA analysis code (sections II-B, IV-A): it owns a motif automaton, can
actually scan real buffers (host-side, chunk-parallel), and exports the
:class:`~repro.machines.perfmodel.WorkloadProfile` that couples the
automaton's footprint into the platform performance model used for
host/device time estimation.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..machines.perfmodel import DNA_SCAN, WorkloadProfile
from .automaton import DFA, build_automaton
from .matching import MatchResult
from .motifs import DEFAULT_MOTIFS, MotifSet
from .parem import ParemEngine
from .sequence import fraction_bases


@dataclass(frozen=True)
class SplitScan:
    """Result of a host/device split scan of one buffer."""

    host: MatchResult
    device: MatchResult
    host_fraction: float

    @property
    def total(self) -> int:
        """Combined match count across both sides."""
        return self.host.total + self.device.total

    @property
    def per_pattern(self) -> np.ndarray:
        """Combined per-pattern counts."""
        return self.host.per_pattern + self.device.per_pattern


class DNASequenceAnalysis:
    """Motif search over DNA sequences with divisible work.

    Parameters
    ----------
    motifs:
        Patterns to search for (defaults to promoter + restriction sites).
        Chunk scans use the exact windowed scanner when its table fits.
    """

    def __init__(self, motifs: MotifSet = DEFAULT_MOTIFS) -> None:
        from .automaton import window_table_feasible

        self.motifs = motifs
        self.dfa: DFA = build_automaton(motifs)
        # Very long patterns make the windowed scanner's precomputed
        # table infeasible; fall back to the scalar engine transparently.
        self.vectorized = window_table_feasible(self.dfa)
        self.engine = ParemEngine(self.dfa, vectorized=self.vectorized)

    def workload_profile(self) -> WorkloadProfile:
        """Performance-model handle for this automaton.

        Only the table footprint differs from the default DNA profile;
        scan rates are per-byte and motif-set independent.
        """
        return WorkloadProfile(
            name=f"dna-scan[{self.motifs.name}]",
            host_rate_mbs=DNA_SCAN.host_rate_mbs,
            device_rate_mbs=DNA_SCAN.device_rate_mbs,
            table_kb=self.dfa.table_kb,
            result_mb=DNA_SCAN.result_mb,
            transfer_overlap=DNA_SCAN.transfer_overlap,
        )

    def analyze(self, codes: np.ndarray, *, n_workers: int = 1) -> MatchResult:
        """Scan a buffer with ``n_workers`` parallel chunk workers."""
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        if n_workers == 1:
            return self.engine.scan(codes, n_chunks=1)
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            return self.engine.scan(codes, n_chunks=n_workers, executor=pool)

    def analyze_split(
        self,
        codes: np.ndarray,
        host_fraction: float,
        *,
        host_workers: int = 1,
        device_workers: int = 1,
    ) -> SplitScan:
        """Scan with the first ``host_fraction`` percent on the "host" and
        the remainder on the "device" (a second worker pool standing in
        for the co-processor), chaining the DFA state across the cut so
        boundary-spanning matches are counted exactly once.
        """
        codes = np.asarray(codes, dtype=np.uint8)
        cut = fraction_bases(len(codes), host_fraction)
        host_part, device_part = codes[:cut], codes[cut:]
        host_res = self.engine.scan(host_part, n_chunks=max(1, host_workers))
        # Device side starts from the host side's exact end state.
        work_chunks = max(1, device_workers)
        device_res = self._scan_from(device_part, host_res.end_state, work_chunks)
        return SplitScan(host=host_res, device=device_res, host_fraction=host_fraction)

    def _scan_from(self, codes: np.ndarray, start_state: int, n_chunks: int) -> MatchResult:
        """Chunk-parallel scan with a non-root initial state.

        The PaREM boundary pass assumes the overall scan starts at the
        root; for a mid-stream continuation we prepend the incoming state
        by scanning the first chunk with it explicitly.
        """
        if len(codes) == 0:
            return MatchResult(
                total=0,
                per_pattern=np.zeros(self.dfa.n_patterns, dtype=np.int64),
                end_state=start_state,
                engine="parem",
            )
        work = self.engine.plan(codes, n_chunks)
        per = np.zeros(self.dfa.n_patterns, dtype=np.int64)
        state = start_state
        end_state = start_state
        for w in work:
            # Chunks after the first have exact incoming states already
            # *unless* the automaton hasn't flushed the injected context
            # yet (only possible while total scanned < max_depth).
            scanned = w.start
            use_state = w.start_state if scanned >= self.dfa.max_depth else state
            res = self.engine._scan_one(codes, ChunkWorkShim(w, use_state))
            per += res.per_pattern
            state = res.end_state
            if w.stop > w.start:
                end_state = res.end_state
        return MatchResult(
            total=int(per.sum()), per_pattern=per, end_state=end_state, engine="parem"
        )


class ChunkWorkShim:
    """A ChunkWork with an overridden start state (internal helper)."""

    def __init__(self, work, start_state: int) -> None:
        self.index = work.index
        self.start = work.start
        self.stop = work.stop
        self.start_state = start_state
