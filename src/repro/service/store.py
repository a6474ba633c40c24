"""The durable, cross-process tuning result store.

This promotes the in-process EM-reference cache
(:data:`repro.core.campaign._EM_CACHE`) to an on-disk store that
server restarts, pool workers, and unrelated processes all share — the
ACToR-style durable experiment-store shape: one append-only JSON-lines
file, one record per line, readable and greppable by humans.

Four record kinds live in one file (full format spec, invalidation
rules, and concurrency guarantees in ``docs/result-store.md``):

``em``
    One EM enumeration reference, keyed by the campaign cache key —
    ``(platform spec, workload profile, space signature, size, seed,
    refine)``.  The key tuple is hashed to a digest
    (:func:`em_key_digest`): dataclass ``repr`` is deterministic and
    content-complete, so equal cells collide and *any* change to the
    platform calibration, workload profile, or grid shape changes the
    digest — structural invalidation for free.
``scenario``
    One fully served request cell, keyed by :class:`CellKey` (the
    result-relevant request parameters, registry-canonicalized).  A
    duplicate request — concurrent or after a restart — is answered
    from this record with zero recomputation.
``training`` / ``models``
    Transfer learning's durable tier (:mod:`repro.ml.transfer`): one
    measured training grid / one fitted ``(host, device)`` predictor
    pair, content-addressed by
    :func:`~repro.ml.transfer.training_key_digest` /
    :func:`~repro.ml.transfer.models_key_digest` (warm model digests
    chain through their donor's digest, so a whole training lineage
    validates or invalidates together).  Array payloads travel as
    base64-wrapped compressed ``.npz`` blobs — binary-exact, so a model
    loaded from the store predicts bit-identically to the one trained
    in-process.

Every record carries ``schema``: records whose version differs from
the reader's are skipped at load (counted in ``stats.invalidated``),
so a format change invalidates old files without deleting them.

Concurrency: writes are single ``O_APPEND`` lines (atomic for this
size on POSIX), duplicate records for the same key are deterministic-
identical and first-one-wins at load, and :meth:`ResultStore.refresh`
tails the file from the last read offset so long-lived processes see
other writers' entries without re-parsing the whole file.  Within one
process, a lock serializes the read offset and the in-memory index, so
threads tailing and writing one instance at once (a server's event
loop and its executor threads) never adopt one chunk twice or land the
offset mid-line.

Crash safety: a writer killed mid-append leaves a *torn tail* — a
partial line with no newline.  The first :meth:`ResultStore.refresh`
of a fresh instance (the crash-recovery point) terminates such a tail
with a newline so it quarantines as one corrupt line instead of
silently concatenating with the next writer's record (counted in
``stats.quarantined``).  Failed appends are retried under a
:class:`~repro.reliability.RetryPolicy` with a defensive leading
newline, so a torn in-process write never corrupts the following
record either.  :meth:`ResultStore.compact` rewrites the file without
corrupt / foreign-schema / duplicate lines via fsync + atomic rename,
and the ``fsync`` knob trades append throughput for power-loss
durability.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass

from repro.reliability import (
    KIND_TORN_WRITE,
    SITE_STORE_APPEND,
    SITE_STORE_IO,
    STORE_RETRY_POLICY,
    InjectedIOError,
    RetryPolicy,
    maybe_action,
    perform_action,
)

from .. import codec
from ..core.campaign import ML_METHODS, ScenarioReport
from ..core.methods import METHOD_PROPERTIES, MethodResult, check_size_mb
from ..core.options import TuningOptions
from ..dna.workloads import get_workload, is_derived_key
from ..machines.registry import resolve_platform
from .serde import decode_scenario, encode_scenario

#: Bump on any incompatible change to record layout or key derivation;
#: readers skip records from other versions (versioned invalidation).
#: v2: ``CellKey`` grew ``workload_digest`` (derived workloads are
#: content-addressed, see :meth:`CellKey.for_request`), which changes
#: every scenario digest.
#: v3: ``CellKey`` grew ``transfer`` / ``portfolio`` (both result-
#: relevant), scenario payloads may embed a portfolio ledger, and the
#: ``training`` / ``models`` record kinds joined the file (transfer
#: learning's durable tier, see :mod:`repro.ml.transfer`).
STORE_SCHEMA_VERSION = 3

KIND_EM = "em"
KIND_SCENARIO = "scenario"
KIND_TRAINING = "training"
KIND_MODELS = "models"


def em_key_digest(key: tuple) -> str:
    """Stable digest of a campaign EM-cache key tuple.

    The tuple is all frozen dataclasses, tuples, and scalars, whose
    ``repr`` is deterministic and spells out every calibration field —
    hashing it gives equal digests for equal cells and fresh digests
    whenever anything that could change the result changes.
    """
    return codec.digest(key)


@dataclass(frozen=True)
class CellKey:
    """Identity of one served request cell: the result-relevant knobs.

    ``workload`` / ``platform`` are registry-canonical names and
    ``size_mb`` is resolved (a ``None`` request size means "the
    workload's own scale", which must dedup against an explicit equal
    size).  Execution-only knobs — ``shards``, ``processes``,
    ``start_method`` — are deliberately absent: they are bit-identical
    by construction, so a result computed with 4 shards serves a
    1-shard request verbatim.  ``engine`` / ``batch_size`` stay in the
    key because the served report embeds engine statistics.

    *Derived* workloads — namespaced registry keys such as the ingested
    ``fasta:<name>`` pairs (see :func:`~repro.dna.workloads.is_derived_key`)
    — additionally carry ``workload_digest``, the content digest of the
    resolved :class:`~repro.dna.workloads.WorkloadSpec`: two clients
    ingesting *different* FASTA files under the same name must not
    collide in the store, and re-ingesting identical content must.
    Built-in workloads keep ``workload_digest=None`` (their name alone
    is canonical — the registry rejects redefinition).
    """

    workload: str
    platform: str
    method: str
    size_mb: float
    iterations: int
    seed: int
    engine: str | None
    batch_size: int
    refine: float | None
    workload_digest: str | None = None
    #: Transfer-learned training and portfolio racing both change the
    #: served result (different models / different winner and ledger),
    #: so they are part of the identity; ``portfolio`` is the schedule's
    #: canonical string (:meth:`repro.core.portfolio.PortfolioSpec.key`).
    transfer: bool = False
    portfolio: str | None = None

    @classmethod
    def for_request(
        cls,
        workload: str,
        platform: str,
        *,
        method: str = "SAM",
        size_mb: float | None = None,
        iterations: int = 1000,
        seed: int = 0,
        options: TuningOptions | None = None,
    ) -> "CellKey":
        """Canonicalize a request into its dedup identity.

        Result-relevant execution knobs come from ``options`` (a
        :class:`~repro.core.options.TuningOptions`, ``None`` for the
        defaults); the execution-only fields (``shards`` / ``processes``
        / ``start_method``) are ignored by construction.  Raises
        ``ValueError`` for unknown workload/platform/method names, for a
        given size that is not a positive finite number, and for
        ML-backed methods on a platform without an accelerator, so
        admission rejects bad requests before touching the store or
        charging a quota.
        """
        if size_mb is not None:
            check_size_mb(size_mb)
        opts = options or TuningOptions()
        wspec = get_workload(workload)
        pspec = resolve_platform(platform)
        method = method.upper()
        if method not in METHOD_PROPERTIES:
            raise ValueError(
                f"unknown method {method!r}; expected one of "
                f"{', '.join(METHOD_PROPERTIES)}"
            )
        if method in ML_METHODS:
            pspec.require_device(
                f"method {method} needs per-platform trained predictors — use EM or SAM"
            )
        return cls(
            workload=wspec.name,
            platform=pspec.name,
            method=method,
            size_mb=float(size_mb) if size_mb is not None else wspec.sequence_mb,
            iterations=int(iterations),
            seed=int(seed),
            engine=opts.engine,
            batch_size=int(opts.batch_size),
            refine=None if opts.refine is None else float(opts.refine),
            workload_digest=(
                wspec.content_digest() if is_derived_key(wspec.name) else None
            ),
            transfer=bool(opts.transfer),
            portfolio=None if opts.portfolio is None else opts.portfolio.key(),
        )

    def digest(self) -> str:
        return codec.digest(self)

    def describe(self) -> str:
        """Short human form, e.g. ``SAM short-read@emil 300MB seed=0``."""
        refined = "" if self.refine is None else f" refine={self.refine:g}"
        extras = ("" if not self.transfer else " transfer") + (
            "" if self.portfolio is None else f" portfolio={self.portfolio}"
        )
        return (
            f"{self.method} {self.workload}@{self.platform} "
            f"{self.size_mb:g}MB seed={self.seed}{refined}{extras}"
        )


@dataclass
class StoreStats:
    """Counters a long-lived server reports through its stats op."""

    hits: int = 0  # get() answered from the store
    misses: int = 0  # get() found nothing
    puts: int = 0  # fresh records appended
    duplicates: int = 0  # put() skipped: key already present
    invalidated: int = 0  # records skipped: foreign schema version
    corrupt: int = 0  # lines skipped: not parseable JSON records
    quarantined: int = 0  # torn tails terminated at crash recovery
    write_retries: int = 0  # failed appends retried under the policy

    def as_dict(self) -> dict:
        return codec.encode(self)


@dataclass(frozen=True)
class CompactionReport:
    """What :meth:`ResultStore.compact` kept, dropped, and reclaimed."""

    path: str
    bytes_before: int = 0
    bytes_after: int = 0
    kept: int = 0
    dropped_corrupt: int = 0  # unparseable lines, incl. quarantined tails
    dropped_foreign: int = 0  # records from other schema versions
    dropped_duplicates: int = 0  # later records for an already-seen key

    @property
    def reclaimed(self) -> int:
        """Bytes the rewrite gave back."""
        return self.bytes_before - self.bytes_after

    @property
    def dropped(self) -> int:
        """Total lines dropped."""
        return self.dropped_corrupt + self.dropped_foreign + self.dropped_duplicates

    def describe(self) -> str:
        """One human line, printed by ``repro store compact``."""
        return (
            f"kept {self.kept} records, dropped {self.dropped} lines "
            f"({self.dropped_corrupt} corrupt, {self.dropped_foreign} foreign-schema, "
            f"{self.dropped_duplicates} duplicate), reclaimed {self.reclaimed} bytes "
            f"({self.bytes_before} -> {self.bytes_after})"
        )


class ResultStore:
    """Append-only JSON-lines store for EM references and served cells.

    One instance per process per file; every public accessor keeps the
    in-memory index consistent with what this process has read so far,
    and :meth:`refresh` tails records appended by other processes.
    First-one-wins on duplicate keys (duplicates are deterministic-
    identical, see the module docstring), matching the in-memory
    cache's ``setdefault`` merge rule.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: str = "never",
        retry: RetryPolicy | None = None,
        schema_version: int = STORE_SCHEMA_VERSION,
    ):
        if fsync not in ("never", "always"):
            raise ValueError(f"fsync must be 'never' or 'always', got {fsync!r}")
        self.path = str(path)
        self.fsync = fsync
        self.retry = retry if retry is not None else STORE_RETRY_POLICY
        self.schema_version = int(schema_version)
        self.stats = StoreStats()
        self._entries: dict[tuple[str, str], dict] = {}
        self._meta: dict[tuple[str, str], dict] = {}
        self._offset = 0
        self._recovered = False  # flips after the first (crash-recovery) refresh
        # Serializes refresh() (offset and adoption) with _put()'s index insert.
        self._lock = threading.Lock()
        self.refresh()

    def __len__(self) -> int:
        return len(self._entries)

    # -- file tailing --------------------------------------------------------

    def refresh(self) -> int:
        """Read records appended since the last read; return how many.

        Only complete lines are consumed: a concurrent writer's partial
        line stays in the file until its newline lands, so the offset
        never advances past a record boundary.  The *initial* refresh
        of an instance — the crash-recovery point — is the exception:
        an unterminated tail there is a crashed writer's torn line, so
        it is terminated with a newline and quarantined (a complete
        record that merely lost its newline is adopted instead).

        Thread-safe: concurrent refreshes of one instance take turns,
        so each chunk is read and adopted exactly once.
        """
        with self._lock:
            initial = not self._recovered
            self._recovered = True
            if not os.path.exists(self.path):
                return 0
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
            end = chunk.rfind(b"\n")
            adopted = 0
            if end >= 0:
                self._offset += end + 1
                for line in chunk[: end + 1].splitlines():
                    if self._adopt_line(line):
                        adopted += 1
            tail = chunk[end + 1 :]
            if tail and initial:
                adopted += self._quarantine_torn_tail(tail)
            return adopted

    def _quarantine_torn_tail(self, tail: bytes) -> int:
        """Terminate a crashed writer's torn tail; adopt it if whole.

        Appends a newline (``O_APPEND``) so the partial line becomes one
        self-contained corrupt record rather than a prefix of the next
        writer's line.  Runs only on the initial refresh: later on, an
        unterminated tail may be a *live* concurrent writer mid-line,
        which must be left alone.
        """
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, b"\n")
            if self.fsync == "always":
                os.fsync(fd)
        finally:
            os.close(fd)
        self._offset += len(tail) + 1
        before = self.stats.corrupt
        if self._adopt_line(tail):
            return 1  # a complete record that only lost its newline
        if self.stats.corrupt > before:
            self.stats.corrupt = before
            self.stats.quarantined += 1
        return 0

    def _adopt_line(self, line: bytes) -> bool:
        line = line.strip()
        if not line:
            return False
        try:
            record = json.loads(line)
            kind = record["kind"]
            digest = record["key"]
            payload = record["payload"]
            schema = record["schema"]
        except (ValueError, KeyError, TypeError):
            self.stats.corrupt += 1
            return False
        if schema != self.schema_version:
            self.stats.invalidated += 1
            return False
        entry = (kind, digest)
        if entry in self._entries:
            self.stats.duplicates += 1
            return False
        self._entries[entry] = payload
        self._meta[entry] = record.get("meta", {})
        return True

    def _append(self, record: dict) -> None:
        """Append one record line, retrying transient write failures.

        A failed attempt may have written partial bytes (a torn line),
        so every retry leads with a defensive newline: the torn prefix
        then quarantines as one corrupt line and the retried record
        lands whole.  The retry budget comes from the store's policy
        (deterministic backoff); a write that keeps failing propagates
        after the last attempt.
        """
        line = (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")
        kind = str(record.get("kind", "?"))
        policy = self.retry
        for attempt in range(policy.max_attempts):
            payload = line if attempt == 0 else b"\n" + line
            try:
                self._write_line(payload, kind)
                return
            except OSError:
                if attempt + 1 >= policy.max_attempts:
                    raise
                self.stats.write_retries += 1
                delay = policy.backoff(attempt)
                if delay > 0:
                    time.sleep(delay)

    def _write_line(self, payload: bytes, kind: str) -> None:
        """One append attempt: the only place store bytes hit the disk.

        Fault-injection sites: :data:`~repro.reliability.SITE_STORE_IO`
        fails the attempt before any byte is written (a transient I/O
        error); :data:`~repro.reliability.SITE_STORE_APPEND` tears the
        write — half the payload lands, then the attempt fails — which
        is the store performing its own torn-write fault (it owns the
        bytes).  Both are disarmed no-ops in production.
        """
        perform_action(maybe_action(SITE_STORE_IO, kind))
        torn = maybe_action(SITE_STORE_APPEND, kind)
        # O_APPEND: concurrent writers interleave whole lines, never bytes.
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            if torn is not None and torn.kind == KIND_TORN_WRITE:
                os.write(fd, payload[: max(1, len(payload) // 2)])
                raise InjectedIOError(f"injected torn append to {self.path}")
            os.write(fd, payload)
            if self.fsync == "always":
                os.fsync(fd)
        finally:
            os.close(fd)

    def _get(self, kind: str, digest: str) -> dict | None:
        payload = self._entries.get((kind, digest))
        if payload is None:
            # Another process may have written the cell since we last
            # looked; tail the file once before declaring a miss.
            self.refresh()
            payload = self._entries.get((kind, digest))
        if payload is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def _put(self, kind: str, digest: str, meta: dict, payload: dict) -> bool:
        entry = (kind, digest)
        with self._lock:
            if entry in self._entries:
                self.stats.duplicates += 1
                return False
            self._entries[entry] = payload
            self._meta[entry] = meta
        self._append(
            {
                "schema": self.schema_version,
                "kind": kind,
                "key": digest,
                "meta": meta,
                "payload": payload,
            }
        )
        self.stats.puts += 1
        return True

    # -- EM references (the promoted _EM_CACHE) ------------------------------

    def get_em(self, key: tuple) -> MethodResult | None:
        """The stored EM reference for a campaign cache key, if any."""
        payload = self._get(KIND_EM, em_key_digest(key))
        return None if payload is None else codec.decode(MethodResult, payload)

    def put_em(self, key: tuple, result: MethodResult) -> bool:
        """Persist one EM reference; False when the key already exists."""
        spec, workload, _space, size_mb, seed, refine = key
        meta = {
            "platform": spec.name,
            "workload": workload.name,
            "size_mb": size_mb,
            "seed": seed,
            "refine": refine,
        }
        return self._put(KIND_EM, em_key_digest(key), meta, codec.encode(result))

    # -- served scenario cells -----------------------------------------------

    def get_scenario(self, cell: CellKey) -> ScenarioReport | None:
        """The stored served result for a request cell, if any."""
        payload = self._get(KIND_SCENARIO, cell.digest())
        return None if payload is None else decode_scenario(payload)

    def put_scenario(self, cell: CellKey, report: ScenarioReport) -> bool:
        """Persist one served cell; False when the key already exists."""
        meta = {"cell": cell.describe()}
        return self._put(KIND_SCENARIO, cell.digest(), meta, encode_scenario(report))

    # -- transfer-learning artifacts (see repro.ml.transfer) -----------------

    def get_training(self, digest: str):
        """The stored measured training grid for a content digest, if any."""
        payload = self._get(KIND_TRAINING, digest)
        if payload is None:
            return None
        from .serde import decode_training_data

        return decode_training_data(payload)

    def put_training(self, digest: str, data, meta: dict | None = None) -> bool:
        """Persist one measured training grid; False when already present.

        ``digest`` is :func:`repro.ml.transfer.training_key_digest` —
        content-addressed over the platform calibration, workload
        profile, grid signature, and noise seed, so structurally equal
        grids collide and any calibration change misses.
        """
        from .serde import encode_training_data

        return self._put(
            KIND_TRAINING, digest, dict(meta or {}), encode_training_data(data)
        )

    def get_models(self, digest: str):
        """The stored fitted ``(host, device)`` model pair, if any."""
        payload = self._get(KIND_MODELS, digest)
        if payload is None:
            return None
        from .serde import decode_model_pair

        return decode_model_pair(payload)

    def put_models(
        self, digest: str, host_model, device_model, meta: dict | None = None
    ) -> bool:
        """Persist one fitted model pair; False when already present.

        ``digest`` is :func:`repro.ml.transfer.models_key_digest` — it
        chains through the training grid's digest and, for warm-started
        models, the donor's digest, so a stored model is valid exactly
        as long as its whole lineage is.
        """
        from .serde import encode_model_pair

        return self._put(
            KIND_MODELS,
            digest,
            dict(meta or {}),
            encode_model_pair(host_model, device_model),
        )

    # -- compaction ----------------------------------------------------------

    def compact(self) -> "CompactionReport":
        """Rewrite the file keeping only live records; atomic swap.

        Drops corrupt/quarantined lines, foreign-schema records, and
        duplicate keys (first-one-wins, matching load order), then
        replaces the store file via write-to-temp + fsync +
        ``os.replace`` — a crash at any point leaves either the old
        file or the new one, never a mix.  The in-memory index is
        unchanged (the kept records are exactly what load would adopt);
        the read offset moves to the new end-of-file.
        """
        self.refresh()
        if not os.path.exists(self.path):
            return CompactionReport(path=self.path)
        with open(self.path, "rb") as fh:
            raw = fh.read()
        report_kwargs = dict(
            dropped_corrupt=0, dropped_foreign=0, dropped_duplicates=0
        )
        seen: set[tuple[str, str]] = set()
        kept: list[bytes] = []
        for line in raw.splitlines():
            stripped = line.strip()
            if not stripped:
                continue  # blank padding (defensive-newline retries)
            try:
                record = json.loads(stripped)
                entry = (record["kind"], record["key"])
                schema = record["schema"]
            except (ValueError, KeyError, TypeError):
                report_kwargs["dropped_corrupt"] += 1
                continue
            if schema != self.schema_version:
                report_kwargs["dropped_foreign"] += 1
                continue
            if entry in seen:
                report_kwargs["dropped_duplicates"] += 1
                continue
            seen.add(entry)
            kept.append(stripped)
        payload = b"".join(line + b"\n" for line in kept)
        tmp = self.path + ".compact.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, payload)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, self.path)
        self._offset = len(payload)
        return CompactionReport(
            path=self.path,
            bytes_before=len(raw),
            bytes_after=len(payload),
            kept=len(kept),
            **report_kwargs,
        )

    # -- introspection -------------------------------------------------------

    def count(self, kind: str) -> int:
        """How many records of one kind are loaded."""
        return sum(1 for k, _ in self._entries if k == kind)

    def describe_entries(self) -> list[str]:
        """Human-readable one-liners for every loaded record."""
        out = []
        for (kind, digest), meta in self._meta.items():
            label = meta.get("cell") or (
                f"{meta.get('platform', '?')}/{meta.get('workload', '?')} "
                f"{meta.get('size_mb', '?')}MB seed={meta.get('seed', '?')}"
            )
            out.append(f"{kind:<8} {digest[:12]}  {label}")
        return sorted(out)
