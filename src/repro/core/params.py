"""System-configuration parameter space (Table I), host + N devices.

A *system configuration* is the tuple the optimizer searches over:

``(host threads, host affinity, device threads, device affinity,
   host workload fraction)``

with the device fraction implied as ``100 - host fraction``.

Two thread-count grids appear in the paper: Table I lists host threads
``{2, 4, 6, 12, 24, 36, 48}`` while the evaluation (section IV-A) uses
``{2, 6, 12, 24, 36, 48}``; only the latter is consistent with the
reported space size (19 926 = 6x3 x 9x3 x 41 fractions) and the 2880
host training experiments, so the default space uses it.  Table I's
7-value grid is available as :data:`TABLE1_HOST_THREADS`.

Multi-device configurations and the share simplex
-------------------------------------------------

Paper section II-A allows "one to eight accelerators" per node.  A
configuration therefore carries one ``(threads, affinity, share)``
triple per accelerator: the five fields above describe the host and the
*primary* device (device 0), and :attr:`SystemConfiguration.extra_devices`
holds one :class:`DeviceSlot` per additional card.  The share vector
``(host, device 0, ..., device N-1)`` always sums to 100: the host share
is ``host_fraction``, the extra devices carry explicit shares, and the
primary device absorbs the residual — which makes the historical
host+1-device 5-tuple exactly the N=1 special case (``extra_devices=()``,
primary share ``100 - host_fraction``), with identical field ordering,
hashing, and iteration.

The workload-fraction axis generalizes to a *discretized share simplex*:
the set of share vectors whose components are non-negative multiples of
a grid step and sum to 100.  With ``p = N + 1`` parts and step ``s``
there are ``C(100/s + p - 1, p - 1)`` such vectors (stars and bars), so
the default step grows with the device count to keep a single dense
walk finite: :func:`share_step_for` maps 2 parts -> 2.5 % (the paper's
41-value fraction grid, verbatim), 3 parts -> 5 %, 4 parts -> 10 %,
5 parts -> 12.5 %, and 25 % beyond — a few hundred share vectors at
every N up to the paper's eight accelerators.  Share vectors enumerate
lexicographically (host share ascending, then device 0, ...), which for
N=1 reproduces Table I's fraction order exactly.

These coarse :data:`SHARE_STEPS` are a *starting point*, not a ceiling:
the sharded, coarse-to-fine enumeration in
:mod:`repro.core.enumeration` (``shards=`` / ``refine=``) partitions
the simplex into contiguous lexicographic slices and re-enumerates the
incumbent's neighborhood at successively halved steps, so N >= 4
platforms reach paper-grid (2.5 %, or even 1.25 %) share fidelity
without ever materializing the full fine simplex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from ..machines.affinity import DEVICE_AFFINITIES, HOST_AFFINITIES
from ..machines.spec import PlatformSpec

#: Host thread counts used throughout the evaluation (section IV-A).
EVAL_HOST_THREADS: tuple[int, ...] = (2, 6, 12, 24, 36, 48)
#: Host thread counts as printed in Table I (includes 4).
TABLE1_HOST_THREADS: tuple[int, ...] = (2, 4, 6, 12, 24, 36, 48)
#: Device thread counts (Table I and section IV-A agree).
DEVICE_THREADS: tuple[int, ...] = (2, 4, 8, 16, 30, 60, 120, 180, 240)

#: Workload-fraction grid: 0..100 percent in steps of 2.5 (41 values).
#: 41 x 6 x 3 x 9 x 3 = 19 926, the paper's enumeration count; the same
#: grid minus the 0% endpoint x 40 values yields the 2880/4320 training
#: experiment counts of section IV-B.
FRACTION_STEP = 2.5
FRACTIONS: tuple[float, ...] = tuple(
    float(x) for x in np.arange(0.0, 100.0 + FRACTION_STEP / 2, FRACTION_STEP)
)

#: Tolerance on "shares sum to 100" checks (shares are percents; every
#: built-in grid is dyadic-exact, so the tolerance only matters for
#: hand-written vectors).
SHARE_SUM_TOL = 1e-6

#: Share-simplex grid step by number of parts (host + N devices); see
#: :func:`share_step_for`.
SHARE_STEPS: dict[int, float] = {2: FRACTION_STEP, 3: 5.0, 4: 10.0, 5: 12.5}
#: Step used beyond five parts (up to the paper's 8-accelerator nodes).
MANY_PART_SHARE_STEP = 25.0


def share_step_for(num_parts: int) -> float:
    """Default share-grid step for ``num_parts``-way distributions.

    Chosen so the simplex stays at a few hundred vectors for every part
    count (see the module docstring); 2 parts reproduce the paper's
    2.5 %-step fraction grid exactly.
    """
    if num_parts < 2:
        raise ValueError(f"num_parts must be >= 2, got {num_parts}")
    return SHARE_STEPS.get(num_parts, MANY_PART_SHARE_STEP)


def share_simplex(num_parts: int, step: float | None = None) -> tuple[tuple[float, ...], ...]:
    """All share vectors on the discretized simplex, in lexicographic order.

    Every vector has ``num_parts`` non-negative components, each a
    multiple of ``step`` percent, summing to exactly 100.  Vectors are
    ordered lexicographically (first part ascending, then second, ...);
    for ``num_parts == 2`` the first components are exactly
    :data:`FRACTIONS`, preserving Table I's fraction order.
    """
    if step is None:
        step = share_step_for(num_parts)
    if step <= 0 or step > 100:
        raise ValueError(f"step must be in (0, 100], got {step}")
    units = round(100.0 / step)
    if abs(units * step - 100.0) > SHARE_SUM_TOL:
        raise ValueError(f"step {step} does not divide 100 evenly")

    def parts(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for k in range(remaining + 1):
            for rest in parts(remaining - k, slots - 1):
                yield (k, *rest)

    return tuple(
        tuple(float(k * step) for k in vec) for vec in parts(units, num_parts)
    )


def part_mb_columns(
    host_fraction: np.ndarray,
    extra_shares: Sequence[np.ndarray],
    size_mb: float,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-part megabyte columns under the residual-last conservation rule.

    The single columnar implementation behind
    :meth:`ConfigTable.part_mb` and the separable enumeration walk; the
    elementwise operations mirror
    :meth:`SystemConfiguration.part_megabytes` exactly (pinned by the
    scalar==columnar regression tests), so all three views of a
    configuration agree bit for bit: host and devices ``0..N-2`` take
    ``size * share / 100``, the last device the exact residual.
    """
    host_fraction = np.asarray(host_fraction, dtype=np.float64)
    host_mb = size_mb * host_fraction / 100.0
    if not len(extra_shares):
        return host_mb, [size_mb - host_mb]
    rest = np.zeros_like(host_fraction)
    for shares in extra_shares:
        rest = rest + shares
    primary_share = 100.0 - host_fraction - rest
    # The float64 accumulation of `rest` can overshoot for non-dyadic
    # share vectors (e.g. thirds), leaving a primary share like -1.4e-14
    # — and a negative megabyte column downstream.  Clamp the residual
    # at zero within the share-sum tolerance; a residual below -tol
    # means the shares genuinely sum past 100 and is an input error.
    if np.any(primary_share < -SHARE_SUM_TOL):
        worst = float(np.min(primary_share))
        raise ValueError(
            f"shares must sum to 100: host + extra-device shares exceed 100 "
            f"(primary residual {worst:g})"
        )
    primary_share = np.maximum(primary_share, 0.0)
    mbs = [size_mb * primary_share / 100.0]
    for shares in extra_shares[:-1]:
        mbs.append(size_mb * shares / 100.0)
    remaining = size_mb - host_mb
    for mb in mbs:
        remaining = remaining - mb
    mbs.append(remaining)
    return host_mb, mbs


@dataclass(frozen=True)
class DeviceSlot:
    """One accelerator's configuration: threads, affinity, percent share."""

    threads: int
    affinity: str
    share: float  # percent of the total workload

    def __post_init__(self) -> None:
        if self.threads <= 0:
            raise ValueError(f"threads must be positive, got {self.threads}")
        if self.affinity not in DEVICE_AFFINITIES:
            raise ValueError(
                f"unknown device affinity {self.affinity!r}; "
                f"expected one of {DEVICE_AFFINITIES}"
            )
        if not 0.0 <= self.share <= 100.0:
            raise ValueError(f"share must be in [0, 100], got {self.share}")


@dataclass(frozen=True)
class SystemConfiguration:
    """One point of the search space (host + N devices; N=1 by default).

    The five leading fields are the paper's 5-tuple: host side, primary
    device (device 0), and the host workload fraction.  Additional
    accelerators ride in ``extra_devices`` with explicit shares; the
    primary device's share is the residual ``100 - host_fraction -
    sum(extra shares)``, so the full share vector sums to 100 by
    construction.
    """

    host_threads: int
    host_affinity: str
    device_threads: int
    device_affinity: str
    host_fraction: float  # percent of work on the host, 0..100
    extra_devices: tuple[DeviceSlot, ...] = ()

    def __post_init__(self) -> None:
        if self.host_threads <= 0:
            raise ValueError(f"host_threads must be positive, got {self.host_threads}")
        if self.device_threads <= 0:
            raise ValueError(
                f"device_threads must be positive, got {self.device_threads}"
            )
        if self.host_affinity not in HOST_AFFINITIES:
            raise ValueError(
                f"unknown host affinity {self.host_affinity!r}; "
                f"expected one of {HOST_AFFINITIES}"
            )
        if self.device_affinity not in DEVICE_AFFINITIES:
            raise ValueError(
                f"unknown device affinity {self.device_affinity!r}; "
                f"expected one of {DEVICE_AFFINITIES}"
            )
        if not 0.0 <= self.host_fraction <= 100.0:
            raise ValueError(
                f"host_fraction must be in [0, 100], got {self.host_fraction}"
            )
        if not isinstance(self.extra_devices, tuple):
            # Coerce eagerly (even when empty) so every configuration
            # stays hashable and equal to its tuple-built twin.
            object.__setattr__(self, "extra_devices", tuple(self.extra_devices))
        if self.extra_devices:
            if self.primary_device_share < -SHARE_SUM_TOL:
                raise ValueError(
                    "shares must sum to 100: host "
                    f"{self.host_fraction:g} + extra devices "
                    f"{sum(d.share for d in self.extra_devices):g} exceed 100"
                )

    @property
    def num_devices(self) -> int:
        """How many accelerators this configuration drives (>= 1)."""
        return 1 + len(self.extra_devices)

    @property
    def device_fraction(self) -> float:
        """Percent of work offloaded (Table I: ``100 - host fraction``)."""
        return 100.0 - self.host_fraction

    @property
    def primary_device_share(self) -> float:
        """Device 0's percent share (the residual of the share vector)."""
        rest = 0.0
        for slot in self.extra_devices:
            rest = rest + slot.share
        return 100.0 - self.host_fraction - rest

    @property
    def shares(self) -> tuple[float, ...]:
        """The full share vector ``(host, device 0, ..., device N-1)``."""
        return (
            self.host_fraction,
            self.primary_device_share,
            *(d.share for d in self.extra_devices),
        )

    @property
    def device_slots(self) -> tuple[DeviceSlot, ...]:
        """Per-device ``(threads, affinity, share)`` for all N devices.

        The primary share is clamped at zero within
        :data:`SHARE_SUM_TOL` (construction already rejected anything
        below that), so near-boundary non-dyadic share vectors never
        produce a DeviceSlot with a ``-1e-14`` share.
        """
        return (
            DeviceSlot(
                self.device_threads,
                self.device_affinity,
                max(0.0, self.primary_device_share),
            ),
            *self.extra_devices,
        )

    def part_megabytes(self, size_mb: float) -> tuple[float, tuple[float, ...]]:
        """Exact per-part megabytes ``(host_mb, device_mbs)``.

        The host and devices ``0..N-2`` take ``size * share / 100``; the
        *last* device takes the exact residual so no byte is lost or
        duplicated.  For N=1 this is precisely the historical pair
        ``(size * f / 100, size - host_mb)``.
        """
        host_mb = size_mb * self.host_fraction / 100.0
        if not self.extra_devices:
            return host_mb, (size_mb - host_mb,)
        # Clamp like part_mb_columns: a -1e-14 residual share (possible
        # for non-dyadic vectors within SHARE_SUM_TOL) must not become
        # a negative megabyte count.
        mbs = [size_mb * max(0.0, self.primary_device_share) / 100.0]
        for slot in self.extra_devices[:-1]:
            mbs.append(size_mb * slot.share / 100.0)
        remaining = size_mb - host_mb
        for mb in mbs:
            remaining = remaining - mb
        mbs.append(remaining)
        return host_mb, tuple(mbs)

    def with_fraction(self, host_fraction: float) -> "SystemConfiguration":
        """Copy with a different host share (the primary device absorbs
        the difference; extra-device shares stay fixed)."""
        return replace(self, host_fraction=float(host_fraction))

    def with_shares(self, shares: Sequence[float]) -> "SystemConfiguration":
        """Copy with a new full share vector (host, device 0, ..., N-1)."""
        shares = tuple(float(s) for s in shares)
        if len(shares) != 1 + self.num_devices:
            raise ValueError(
                f"expected {1 + self.num_devices} shares, got {len(shares)}"
            )
        if abs(sum(shares) - 100.0) > SHARE_SUM_TOL:
            raise ValueError(f"shares must sum to 100, got {sum(shares):g}")
        return replace(
            self,
            host_fraction=shares[0],
            extra_devices=tuple(
                replace(slot, share=s)
                for slot, s in zip(self.extra_devices, shares[2:])
            ),
        )

    def describe(self) -> str:
        """Short human-readable form, e.g. ``48xscatter | 240xbalanced | 60/40``."""
        if not self.extra_devices:
            return (
                f"{self.host_threads}x{self.host_affinity} | "
                f"{self.device_threads}x{self.device_affinity} | "
                f"{self.host_fraction:g}/{self.device_fraction:g}"
            )
        sides = " | ".join(f"{d.threads}x{d.affinity}" for d in self.device_slots)
        split = "/".join(f"{s:g}" for s in self.shares)
        return f"{self.host_threads}x{self.host_affinity} | {sides} | {split}"


class ConfigTable:
    """Structure-of-arrays view of a batch of system configurations.

    The columnar twin of ``list[SystemConfiguration]``: five aligned
    NumPy columns (thread counts and affinity *codes* per side, plus the
    host workload fraction) that the vectorized analytic core consumes
    directly — affinity codes index :data:`~repro.machines.affinity.HOST_AFFINITIES`
    / :data:`~repro.machines.affinity.DEVICE_AFFINITIES` in feature-
    encoding order.  Construction from objects costs one Python pass;
    everything downstream (perf model, simulator noise, enumeration
    argmin) is array math.
    """

    __slots__ = (
        "host_threads",
        "host_codes",
        "device_threads",
        "device_codes",
        "host_fraction",
        "extra_threads",
        "extra_codes",
        "extra_shares",
    )

    def __init__(
        self,
        host_threads: np.ndarray,
        host_codes: np.ndarray,
        device_threads: np.ndarray,
        device_codes: np.ndarray,
        host_fraction: np.ndarray,
        *,
        extra_threads: Sequence[np.ndarray] = (),
        extra_codes: Sequence[np.ndarray] = (),
        extra_shares: Sequence[np.ndarray] = (),
    ) -> None:
        self.host_threads = np.asarray(host_threads, dtype=np.int64)
        self.host_codes = np.asarray(host_codes, dtype=np.int64)
        self.device_threads = np.asarray(device_threads, dtype=np.int64)
        self.device_codes = np.asarray(device_codes, dtype=np.int64)
        self.host_fraction = np.asarray(host_fraction, dtype=np.float64)
        self.extra_threads = tuple(np.asarray(t, dtype=np.int64) for t in extra_threads)
        self.extra_codes = tuple(np.asarray(c, dtype=np.int64) for c in extra_codes)
        self.extra_shares = tuple(np.asarray(s, dtype=np.float64) for s in extra_shares)
        if not len(self.extra_threads) == len(self.extra_codes) == len(self.extra_shares):
            raise ValueError("extra device columns must come in (threads, codes, shares) triples")
        n = len(self.host_threads)
        for col in (
            self.host_codes,
            self.device_threads,
            self.device_codes,
            self.host_fraction,
            *self.extra_threads,
            *self.extra_codes,
            *self.extra_shares,
        ):
            if len(col) != n:
                raise ValueError("ConfigTable columns must have equal length")

    @property
    def num_devices(self) -> int:
        """Devices per row (uniform across the table)."""
        return 1 + len(self.extra_threads)

    @classmethod
    def from_configs(cls, configs: Sequence[SystemConfiguration]) -> "ConfigTable":
        """Columnarize a configuration batch (one Python pass).

        All configurations in a batch must drive the same number of
        devices (they come from one space, so they always do).
        """
        n = len(configs)
        h_index = {a: i for i, a in enumerate(HOST_AFFINITIES)}
        d_index = {a: i for i, a in enumerate(DEVICE_AFFINITIES)}
        n_extra = len(configs[0].extra_devices) if n else 0
        if any(len(c.extra_devices) != n_extra for c in configs):
            raise ValueError("ConfigTable batches must have a uniform device count")
        return cls(
            np.fromiter((c.host_threads for c in configs), dtype=np.int64, count=n),
            np.fromiter((h_index[c.host_affinity] for c in configs), dtype=np.int64, count=n),
            np.fromiter((c.device_threads for c in configs), dtype=np.int64, count=n),
            np.fromiter((d_index[c.device_affinity] for c in configs), dtype=np.int64, count=n),
            np.fromiter((c.host_fraction for c in configs), dtype=np.float64, count=n),
            extra_threads=[
                np.fromiter((c.extra_devices[k].threads for c in configs), dtype=np.int64, count=n)
                for k in range(n_extra)
            ],
            extra_codes=[
                np.fromiter(
                    (d_index[c.extra_devices[k].affinity] for c in configs),
                    dtype=np.int64,
                    count=n,
                )
                for k in range(n_extra)
            ],
            extra_shares=[
                np.fromiter((c.extra_devices[k].share for c in configs), dtype=np.float64, count=n)
                for k in range(n_extra)
            ],
        )

    def __len__(self) -> int:
        return len(self.host_threads)

    def host_mb(self, size_mb: float) -> np.ndarray:
        """Per-row megabytes scanned by the host (same ops as the scalar path)."""
        return size_mb * self.host_fraction / 100.0

    def device_mb(self, size_mb: float) -> np.ndarray:
        """Per-row megabytes offloaded to the device (N=1 tables)."""
        return size_mb - self.host_mb(size_mb)

    def device_columns(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Device ``k``'s ``(threads, affinity codes)`` columns."""
        if k == 0:
            return self.device_threads, self.device_codes
        return self.extra_threads[k - 1], self.extra_codes[k - 1]

    def part_mb(self, size_mb: float) -> tuple[np.ndarray, list[np.ndarray]]:
        """Per-part megabyte columns ``(host_mb, [device 0, ..., N-1])``.

        Elementwise identical to :meth:`SystemConfiguration.part_megabytes`
        (see :func:`part_mb_columns`).
        """
        return part_mb_columns(self.host_fraction, self.extra_shares, size_mb)

    def config_at(self, i: int) -> SystemConfiguration:
        """Materialize one row as a :class:`SystemConfiguration`."""
        return SystemConfiguration(
            int(self.host_threads[i]),
            HOST_AFFINITIES[int(self.host_codes[i])],
            int(self.device_threads[i]),
            DEVICE_AFFINITIES[int(self.device_codes[i])],
            float(self.host_fraction[i]),
            tuple(
                DeviceSlot(
                    int(self.extra_threads[k][i]),
                    DEVICE_AFFINITIES[int(self.extra_codes[k][i])],
                    float(self.extra_shares[k][i]),
                )
                for k in range(len(self.extra_threads))
            ),
        )

    def configs(self) -> list[SystemConfiguration]:
        """Materialize every row (the inverse of :meth:`from_configs`)."""
        return [self.config_at(i) for i in range(len(self))]


#: Reference configurations used as baselines throughout the evaluation.
def host_only_config(threads: int = 48) -> SystemConfiguration:
    """All work on ``threads`` scatter-placed host threads (the paper's
    CPU-only baseline uses 48)."""
    return SystemConfiguration(threads, "scatter", DEVICE_THREADS[-1], "balanced", 100.0)


def device_only_config(threads: int = 240) -> SystemConfiguration:
    """All work on ``threads`` balanced device threads (the paper's
    accelerator-only baseline uses 240)."""
    return SystemConfiguration(EVAL_HOST_THREADS[-1], "scatter", threads, "balanced", 0.0)


class ParameterSpace:
    """The discrete configuration space and its neighborhood structure.

    ``size()`` implements Eq. 1 (product of per-parameter range sizes).
    ``neighbor()`` is the simulated-annealing move: pick one parameter
    uniformly and step it to an adjacent grid value (fractions may jump
    up to ``max_fraction_steps`` grid cells, giving the annealer long-
    range moves along the most sensitive axis).

    Multi-device spaces add one ``(threads, affinities)`` grid per extra
    accelerator (``extra_device_grids``) and replace the fraction axis
    with an explicit share-simplex grid (``shares``; see
    :func:`share_simplex`).  Every share vector must sum to 100 within
    :data:`SHARE_SUM_TOL` — validated here, at construction time.  The
    host+1-device case keeps the historical five axes, iteration order,
    and move semantics bit for bit.
    """

    def __init__(
        self,
        host_threads: Sequence[int] = EVAL_HOST_THREADS,
        host_affinities: Sequence[str] = HOST_AFFINITIES,
        device_threads: Sequence[int] = DEVICE_THREADS,
        device_affinities: Sequence[str] = DEVICE_AFFINITIES,
        fractions: Sequence[float] = FRACTIONS,
        *,
        max_fraction_steps: int = 4,
        extra_device_grids: Sequence[tuple[Sequence[int], Sequence[str]]] = (),
        shares: Sequence[Sequence[float]] | None = None,
    ) -> None:
        for name, values in (
            ("host_threads", host_threads),
            ("host_affinities", host_affinities),
            ("device_threads", device_threads),
            ("device_affinities", device_affinities),
            ("fractions", fractions),
        ):
            if len(values) == 0:
                raise ValueError(f"{name} must be non-empty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} contains duplicates")
        self.host_threads = tuple(host_threads)
        self.host_affinities = tuple(host_affinities)
        self.device_threads = tuple(device_threads)
        self.device_affinities = tuple(device_affinities)
        self.fractions = tuple(float(f) for f in fractions)
        if max_fraction_steps < 1:
            raise ValueError(f"max_fraction_steps must be >= 1, got {max_fraction_steps}")
        self.max_fraction_steps = max_fraction_steps
        #: Per-device ``(threads, affinities)`` grids; index 0 is the
        #: primary device (the classic ``device_threads`` axes).
        grids = [(self.device_threads, self.device_affinities)]
        for k, (threads, affinities) in enumerate(extra_device_grids):
            if len(threads) == 0 or len(affinities) == 0:
                raise ValueError(f"device {k + 1} grid must be non-empty")
            if len(set(threads)) != len(threads) or len(set(affinities)) != len(affinities):
                raise ValueError(f"device {k + 1} grid contains duplicates")
            grids.append((tuple(threads), tuple(affinities)))
        self.device_grids: tuple[tuple[tuple[int, ...], tuple[str, ...]], ...] = tuple(grids)
        self.num_devices = len(grids)
        if self.num_devices == 1:
            if shares is not None:
                raise ValueError(
                    "explicit share vectors require extra_device_grids; "
                    "single-device spaces use the fraction grid"
                )
            self.share_vectors: tuple[tuple[float, ...], ...] | None = None
        else:
            if shares is None:
                shares = share_simplex(self.num_devices + 1)
            vectors = []
            for vec in shares:
                vec = tuple(float(s) for s in vec)
                if len(vec) != self.num_devices + 1:
                    raise ValueError(
                        f"share vector {vec} has {len(vec)} parts; "
                        f"expected {self.num_devices + 1} (host + {self.num_devices} devices)"
                    )
                if any(not 0.0 <= s <= 100.0 for s in vec):
                    raise ValueError(f"share vector {vec} has parts outside [0, 100]")
                if abs(sum(vec) - 100.0) > SHARE_SUM_TOL:
                    raise ValueError(
                        f"share vector {vec} sums to {sum(vec):g}, must sum to 100"
                    )
                vectors.append(vec)
            if not vectors:
                raise ValueError("shares must be non-empty")
            if len(set(vectors)) != len(vectors):
                raise ValueError("shares contains duplicates")
            self.share_vectors = tuple(vectors)
            self.fractions = tuple(sorted({v[0] for v in vectors}))
            self._share_index = {v: i for i, v in enumerate(self.share_vectors)}

    def signature(self) -> tuple:
        """Hashable identity of every grid (cache keys, equality checks)."""
        return (
            self.host_threads,
            self.host_affinities,
            self.device_grids,
            self.share_vectors if self.num_devices > 1 else self.fractions,
            self.max_fraction_steps,
        )

    # -- size and enumeration (Eq. 1) ---------------------------------------

    def size(self) -> int:
        """Total number of system configurations (Eq. 1)."""
        total = len(self.host_threads) * len(self.host_affinities)
        for threads, affinities in self.device_grids:
            total *= len(threads) * len(affinities)
        if self.num_devices == 1:
            return total * len(self.fractions)
        return total * len(self.share_vectors)

    def __len__(self) -> int:
        return self.size()

    def __iter__(self) -> Iterator[SystemConfiguration]:
        return self.iter_configs()

    def iter_configs(self) -> Iterator[SystemConfiguration]:
        """Enumerate every configuration (the EM/EML space walk).

        Axis order: host threads, host affinity, then each device's
        threads and affinity (primary first), then the workload split —
        exactly Table I's order for the single-device case.
        """
        if self.num_devices == 1:
            for ht, ha, dt, da, f in itertools.product(
                self.host_threads,
                self.host_affinities,
                self.device_threads,
                self.device_affinities,
                self.fractions,
            ):
                yield SystemConfiguration(ht, ha, dt, da, f)
            return
        device_axes: list[Sequence] = []
        for threads, affinities in self.device_grids:
            device_axes.append(threads)
            device_axes.append(affinities)
        for combo in itertools.product(
            self.host_threads, self.host_affinities, *device_axes, self.share_vectors
        ):
            yield self.build_config(combo)

    def build_config(self, combo: tuple) -> SystemConfiguration:
        """Assemble a configuration from one per-axis value tuple.

        ``combo`` is ``(host_threads, host_affinity, dev0_threads,
        dev0_affinity, ..., share_vector)`` — the generic axis order
        shared by enumeration, ACO sampling, and crossover.
        """
        shares = combo[-1]
        return SystemConfiguration(
            host_threads=combo[0],
            host_affinity=combo[1],
            device_threads=combo[2],
            device_affinity=combo[3],
            host_fraction=shares[0],
            extra_devices=tuple(
                DeviceSlot(combo[4 + 2 * k], combo[5 + 2 * k], shares[2 + k])
                for k in range(self.num_devices - 1)
            ),
        )

    def __contains__(self, config: SystemConfiguration) -> bool:
        if self.num_devices == 1:
            return (
                config.host_threads in self.host_threads
                and config.host_affinity in self.host_affinities
                and config.device_threads in self.device_threads
                and config.device_affinity in self.device_affinities
                and config.host_fraction in self.fractions
            )
        if config.num_devices != self.num_devices:
            return False
        if (
            config.host_threads not in self.host_threads
            or config.host_affinity not in self.host_affinities
        ):
            return False
        for slot, (threads, affinities) in zip(config.device_slots, self.device_grids):
            if slot.threads not in threads or slot.affinity not in affinities:
                return False
        return config.shares in self._share_index

    # -- random sampling and SA neighborhood --------------------------------

    def random_config(self, rng: np.random.Generator) -> SystemConfiguration:
        """Uniform random configuration (the annealer's initial solution).

        Draw order — host threads, host affinity, each device's threads
        and affinity, then the split — matches the historical five draws
        for single-device spaces.
        """
        if self.num_devices == 1:
            return SystemConfiguration(
                host_threads=self.host_threads[rng.integers(len(self.host_threads))],
                host_affinity=self.host_affinities[rng.integers(len(self.host_affinities))],
                device_threads=self.device_threads[rng.integers(len(self.device_threads))],
                device_affinity=self.device_affinities[
                    rng.integers(len(self.device_affinities))
                ],
                host_fraction=self.fractions[rng.integers(len(self.fractions))],
            )
        combo: list = [
            self.host_threads[rng.integers(len(self.host_threads))],
            self.host_affinities[rng.integers(len(self.host_affinities))],
        ]
        for threads, affinities in self.device_grids:
            combo.append(threads[rng.integers(len(threads))])
            combo.append(affinities[rng.integers(len(affinities))])
        combo.append(self.share_vectors[rng.integers(len(self.share_vectors))])
        return self.build_config(tuple(combo))

    @staticmethod
    def _step(values: tuple, current, rng: np.random.Generator, max_steps: int = 1):
        i = values.index(current)
        if len(values) == 1:
            return current
        step = int(rng.integers(1, max_steps + 1))
        direction = 1 if rng.random() < 0.5 else -1
        j = min(len(values) - 1, max(0, i + direction * step))
        if j == i:  # bounced off the boundary; go the other way
            j = min(len(values) - 1, max(0, i - direction * step))
        return values[j]

    def _step_index(
        self, n: int, i: int, rng: np.random.Generator, max_steps: int = 1
    ) -> int:
        """Index-space twin of :meth:`_step` (same draw pattern)."""
        if n == 1:
            return i
        step = int(rng.integers(1, max_steps + 1))
        direction = 1 if rng.random() < 0.5 else -1
        j = min(n - 1, max(0, i + direction * step))
        if j == i:
            j = min(n - 1, max(0, i - direction * step))
        return j

    @property
    def num_parameters(self) -> int:
        """Tunable axes: host threads/affinity, per-device threads/
        affinity, and one workload-split axis (5 for N=1)."""
        return 2 + 2 * self.num_devices + 1

    def neighbor(
        self, config: SystemConfiguration, rng: np.random.Generator
    ) -> SystemConfiguration:
        """One SA move: perturb a single uniformly chosen parameter.

        Parameter order is the generic axis order (host threads, host
        affinity, device k threads/affinity, split last); for N=1 the
        draws and moves are bit-identical to the historical 5-way move.
        The split move steps through the share-simplex grid in its
        lexicographic order, jumping up to ``max_fraction_steps`` cells.
        """
        which = int(rng.integers(self.num_parameters))
        if which == 0:
            return replace(
                config,
                host_threads=self._step(self.host_threads, config.host_threads, rng),
            )
        if which == 1:
            return replace(
                config,
                host_affinity=self._step(
                    self.host_affinities, config.host_affinity, rng
                ),
            )
        if which == 2:
            return replace(
                config,
                device_threads=self._step(
                    self.device_threads, config.device_threads, rng
                ),
            )
        if which == 3:
            return replace(
                config,
                device_affinity=self._step(
                    self.device_affinities, config.device_affinity, rng
                ),
            )
        if self.num_devices == 1 or which == self.num_parameters - 1:
            if self.num_devices == 1:
                return replace(
                    config,
                    host_fraction=self._step(
                        self.fractions, config.host_fraction, rng, self.max_fraction_steps
                    ),
                )
            i = self._share_index[config.shares]
            j = self._step_index(
                len(self.share_vectors), i, rng, self.max_fraction_steps
            )
            return config.with_shares(self.share_vectors[j])
        k = (which - 4) // 2  # extra device index
        threads, affinities = self.device_grids[k + 1]
        slot = config.extra_devices[k]
        if which % 2 == 0:
            new_slot = replace(slot, threads=self._step(threads, slot.threads, rng))
        else:
            new_slot = replace(slot, affinity=self._step(affinities, slot.affinity, rng))
        slots = list(config.extra_devices)
        slots[k] = new_slot
        return replace(config, extra_devices=tuple(slots))


#: The evaluation space of the paper: |space| = 19 926.
DEFAULT_SPACE = ParameterSpace()


def _scaled_grid(base: Sequence[int], base_capacity: int, capacity: int) -> tuple[int, ...]:
    """Rescale a thread grid to a different hardware-thread capacity.

    Each base value keeps its *relative* position (value / capacity), so
    the grid's shape — a few small counts, then roughly geometric steps
    up to every hardware thread — carries over to any platform.  When
    ``capacity == base_capacity`` the base grid is returned verbatim
    (Emil stays bit-for-bit on Table I's grids).
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if capacity == base_capacity:
        return tuple(base)
    scaled = sorted(
        {min(capacity, max(1, round(v * capacity / base_capacity))) for v in base}
    )
    if scaled[-1] != capacity:
        scaled.append(capacity)
    return tuple(scaled)


def _fraction_grid_step(fractions: Sequence[float]) -> float:
    """The (uniform) step of a fraction grid, or the default when flat."""
    if len(fractions) < 2:
        return FRACTION_STEP
    return float(fractions[1]) - float(fractions[0])


def platform_space(
    platform: PlatformSpec,
    *,
    fractions: Sequence[float] = FRACTIONS,
    max_fraction_steps: int = 4,
) -> ParameterSpace:
    """Fit the Table I configuration space to a platform's capacities.

    Thread grids are the paper's grids rescaled to the platform's host
    and device hardware-thread counts (see :func:`_scaled_grid`); for
    the paper's *Emil* platform the result is exactly
    :data:`DEFAULT_SPACE`, preserving every historical artifact.  A
    platform without an accelerator collapses the device axes and pins
    the workload fraction to 100% host — the space degenerates to the
    host-only configurations, which all methods handle unchanged.

    Multi-accelerator platforms get one rescaled thread grid per device
    (device specs may differ, e.g. mixed 7120P/5110P nodes) and a
    share-simplex split axis whose step is the coarser of the workload's
    fraction step and :func:`share_step_for` — which keeps the simplex
    finite while never refining below what the workload could resolve.
    """
    host_threads = _scaled_grid(
        EVAL_HOST_THREADS, 48, platform.host_hardware_threads
    )
    if platform.has_device:
        device_threads = _scaled_grid(DEVICE_THREADS, 240, platform.max_device_threads)
        device_affinities = DEVICE_AFFINITIES
        space_fractions = tuple(float(f) for f in fractions)
    else:
        device_threads = (1,)
        device_affinities = (DEVICE_AFFINITIES[0],)
        space_fractions = (100.0,)
    if platform.num_devices > 1:
        parts = platform.num_devices + 1
        step = max(share_step_for(parts), _fraction_grid_step(space_fractions))
        extra_device_grids = tuple(
            (
                _scaled_grid(DEVICE_THREADS, 240, spec.usable_hardware_threads),
                DEVICE_AFFINITIES,
            )
            for spec in platform.device_specs[1:]
        )
        return ParameterSpace(
            host_threads=host_threads,
            host_affinities=HOST_AFFINITIES,
            device_threads=device_threads,
            device_affinities=device_affinities,
            fractions=space_fractions,
            max_fraction_steps=max_fraction_steps,
            extra_device_grids=extra_device_grids,
            shares=share_simplex(parts, step),
        )
    if (
        host_threads == EVAL_HOST_THREADS
        and device_threads == DEVICE_THREADS
        and device_affinities == DEVICE_AFFINITIES
        and space_fractions == FRACTIONS
        and max_fraction_steps == DEFAULT_SPACE.max_fraction_steps
    ):
        return DEFAULT_SPACE
    return ParameterSpace(
        host_threads=host_threads,
        host_affinities=HOST_AFFINITIES,
        device_threads=device_threads,
        device_affinities=device_affinities,
        fractions=space_fractions,
        max_fraction_steps=max_fraction_steps,
    )


# --- workload-fitted spaces -------------------------------------------------

#: Inputs at or below this size coarsen the workload-fraction grid: a
#: 2.5 % sliver of a small input is smaller than what an offload launch
#: pays for, so adjacent fractions become indistinguishable.
COARSE_INPUT_MB = 600.0
#: Inputs at or above this size refine the fraction grid: on a tens-of-GB
#: input, 2.5 % steps leave whole seconds between adjacent splits.
FINE_INPUT_MB = 8000.0

#: Fraction grid steps for small / paper-scale / huge inputs.
COARSE_FRACTION_STEP = 5.0
FINE_FRACTION_STEP = 1.25


def workload_fractions(workload) -> tuple[float, ...]:
    """The workload-fraction grid fitted to a workload's input scale.

    The paper's 2.5 %-step grid (41 values) is kept for paper-scale
    inputs; small inputs coarsen to 5 % steps (21 values), huge inputs
    refine to 1.25 % steps (81 values).  ``workload`` is a registry name
    or a :class:`~repro.dna.workloads.WorkloadSpec`.
    """
    from ..dna.workloads import get_workload

    spec = get_workload(workload)
    if spec.sequence_mb <= COARSE_INPUT_MB:
        step = COARSE_FRACTION_STEP
    elif spec.sequence_mb >= FINE_INPUT_MB:
        step = FINE_FRACTION_STEP
    else:
        return FRACTIONS
    return tuple(float(x) for x in np.arange(0.0, 100.0 + step / 2, step))


def workload_space(
    workload,
    platform: PlatformSpec | str | None = None,
) -> ParameterSpace:
    """Fit the Table I space to a (workload, platform) scenario.

    Thread grids follow the platform (see :func:`platform_space`); the
    workload-fraction grid follows the workload's input scale (see
    :func:`workload_fractions`), with the annealer's long-range
    fraction moves rescaled so one move spans the same share of the
    axis on every grid.  For ``("dna-paper", Emil)`` the result is
    exactly :data:`DEFAULT_SPACE` — the paper's scenario is preserved
    bit-for-bit.  ``workload`` is a registry name or a
    :class:`~repro.dna.workloads.WorkloadSpec`; ``platform`` defaults
    to the paper's *Emil*.
    """
    from ..machines.registry import get_platform
    from ..machines.spec import EMIL

    platform = EMIL if platform is None else get_platform(platform)
    fractions = workload_fractions(workload)
    # One long-range annealing move spans up to ~10 % of the fraction
    # axis regardless of grid resolution (4 steps on the paper's grid).
    max_steps = max(1, round(DEFAULT_SPACE.max_fraction_steps * (len(fractions) - 1) / 40))
    return platform_space(platform, fractions=fractions, max_fraction_steps=max_steps)


def cell_space(platform: PlatformSpec, workload_spec=None) -> ParameterSpace:
    """A cell's default space: :func:`workload_space` for a registered
    workload spec, :func:`platform_space` for a raw profile (``None``),
    which carries no input scale."""
    if workload_spec is None:
        return platform_space(platform)
    return workload_space(workload_spec, platform)
