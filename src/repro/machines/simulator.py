"""Noisy "measurement" front-end over the analytic performance model.

:class:`PlatformSimulator` plays the role of the paper's physical
experiments: every :meth:`measure_host` / :meth:`measure_device` call is
one *experiment* and is counted, so optimization methods can report how
much of the 19 926-experiment enumeration budget they consumed (paper
section IV-C reports SAML needing ~5%).

Noise model (seed-per-key scheme)
---------------------------------

Noise is multiplicative and *deterministic per configuration*:
re-measuring the same configuration returns the same value, exactly like
the paper's single-run-per-configuration protocol, while different
configurations see independent perturbations.  The ``none`` host
affinity gets extra variance (OS placement jitter).

Each measurement key ``(seed, side, threads, affinity, mb)`` is absorbed
field by field through a splitmix64-style avalanche mix (on
multi-accelerator nodes the side code of device ``k`` is ``1 + k``, so
every card owns an independent noise stream while device 0 — and hence
every single-device platform — keeps the historical stream bit for
bit); four uniform
variates squeezed from the mixed state form an Irwin-Hall(4)
approximately-Gaussian deviate ``z`` (bounded at ±2*sqrt(3) sigma), and
the measured time is ``model_time * max(1 + sigma * z, 0.05)`` — the
floor keeps factors positive for exotic user-registered profiles with
``sigma >= ~0.27`` and is unreachable for every built-in platform
(max effective sigma 0.032 -> factors within [0.89, 1.11]).  The
scheme is
pure 64-bit integer mixing plus IEEE-754 basic arithmetic — no
transcendentals, no per-key generator objects — so the scalar
(:func:`_gaussian_scalar`) and columnar (:func:`_gaussian_batch`)
implementations are bit-identical by construction and whole measurement
grids vectorize through NumPy.  Regression tests pin both the scalar ==
batch equivalence and golden draw values
(``tests/machines/test_vectorized.py``), so the stream cannot drift
silently.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .affinity import affinity_domain, affinity_index
from .perfmodel import (
    DNA_SCAN,
    DevicePerformanceModel,
    HostPerformanceModel,
    WorkloadProfile,
    _side_columns,
)
from .spec import EMIL, PlatformSpec

#: Relative measurement noise (sigma of the multiplicative factor). The
#: paper's prediction errors (5.2% host, 3.1% device) lower-bound how
#: noisy the underlying measurements can be.  These are Emil's values;
#: other platforms carry their own in ``PlatformSpec.host_perf.noise_sigma``
#: / ``device_perf.noise_sigma``, which the simulator reads.
HOST_NOISE_SIGMA = 0.020
DEVICE_NOISE_SIGMA = 0.025
NONE_AFFINITY_NOISE_SCALE = 1.6

# --- deterministic per-key noise hashing ------------------------------------
#
# splitmix64 finalizer constants (Steele et al.; public domain).  The
# scalar implementation emulates 64-bit wraparound with an explicit
# mask so it matches the NumPy uint64 implementation bit for bit.

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
#: 2**-53: maps the top 53 bits of a mixed word onto [0, 1).
_U53 = 1.0 / 9007199254740992.0
#: sqrt(3): standardizes the Irwin-Hall(4) sum (variance 4/12).
_IH_SCALE = 1.7320508075688772
#: Positivity floor of the multiplicative noise factor; see module docs.
_FACTOR_FLOOR = 0.05

def _side_code(side: str, device: int) -> int:
    """Noise-stream code: host -> 0, device ``k`` -> ``1 + k``.

    Device 0's code is the historical ``device`` code (1), so
    single-device noise streams are unchanged.
    """
    if side == "host":
        return 0
    return 1 + device


def _mix64(z: int) -> int:
    """splitmix64 avalanche finalizer on a Python int (wrapping 64-bit)."""
    z ^= z >> 30
    z = (z * _MIX_A) & _MASK64
    z ^= z >> 27
    z = (z * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 avalanche finalizer on a uint64 array (wrapping)."""
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MIX_A)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def _gaussian_scalar(seed: int, side_code: int, threads: int, aff_code: int, mb: float) -> float:
    """One approximately-Gaussian deviate for a measurement key."""
    mb_bits = struct.unpack("=Q", struct.pack("=d", mb))[0]
    state = _mix64(mb_bits)
    state = _mix64(aff_code ^ state)
    state = _mix64(threads ^ state)
    state = _mix64(side_code ^ state)
    state = _mix64((seed & _MASK64) ^ state)
    u = (_mix64((state + _GOLDEN) & _MASK64) >> 11) * _U53
    u = u + (_mix64((state + 2 * _GOLDEN) & _MASK64) >> 11) * _U53
    u = u + (_mix64((state + 3 * _GOLDEN) & _MASK64) >> 11) * _U53
    u = u + (_mix64((state + 4 * _GOLDEN) & _MASK64) >> 11) * _U53
    return (u - 2.0) * _IH_SCALE


def _gaussian_batch(
    seed: int,
    side_code: int,
    threads: np.ndarray,
    aff_codes: np.ndarray,
    mb: np.ndarray,
) -> np.ndarray:
    """Columnar twin of :func:`_gaussian_scalar` (bit-identical per key)."""
    mb_bits = np.ascontiguousarray(mb, dtype=np.float64).view(np.uint64)
    state = _mix64_array(mb_bits)
    state = _mix64_array(aff_codes.astype(np.uint64) ^ state)
    state = _mix64_array(threads.astype(np.uint64) ^ state)
    state = _mix64_array(np.uint64(side_code) ^ state)
    state = _mix64_array(np.uint64(seed & _MASK64) ^ state)
    u = (_mix64_array(state + np.uint64(_GOLDEN)) >> np.uint64(11)) * _U53
    u = u + (_mix64_array(state + np.uint64((2 * _GOLDEN) & _MASK64)) >> np.uint64(11)) * _U53
    u = u + (_mix64_array(state + np.uint64((3 * _GOLDEN) & _MASK64)) >> np.uint64(11)) * _U53
    u = u + (_mix64_array(state + np.uint64((4 * _GOLDEN) & _MASK64)) >> np.uint64(11)) * _U53
    return (u - 2.0) * _IH_SCALE


@dataclass(frozen=True)
class Measurement:
    """One timed experiment."""

    side: str  # "host" or "device"
    threads: int
    affinity: str
    mb: float
    seconds: float
    device: int = 0  # which accelerator (device-side experiments)


def _resolve_workload(workload) -> WorkloadProfile:
    """Accept a profile, a registered workload name, or a WorkloadSpec.

    The import is deferred: :mod:`repro.dna.workloads` builds on this
    package, so the registry loads lazily only when name resolution is
    actually requested.
    """
    if isinstance(workload, WorkloadProfile):
        return workload
    from ..dna.workloads import workload_profile

    return workload_profile(workload)


class PlatformSimulator:
    """Measurement substrate: configuration in, (noisy) seconds out.

    ``platform`` and ``workload`` accept registry names (resolved via
    :mod:`repro.machines.registry` / :mod:`repro.dna.workloads`) as well
    as explicit spec/profile objects, so a scenario is fully nameable:
    ``PlatformSimulator("fathost", "dense-motif")``.

    Measurements come in scalar (:meth:`measure_host`) and columnar
    (:meth:`measure_host_columns`) forms; the columnar form pushes whole
    ``(threads, affinity, mb)`` grids through the vectorized analytic
    core and the batched noise hash with bit-identical values and
    experiment accounting.  The measurement log is stored in columnar
    blocks and materialized lazily by :attr:`log`.
    """

    def __init__(
        self,
        platform: PlatformSpec | str = EMIL,
        workload: WorkloadProfile | str = DNA_SCAN,
        *,
        noise: bool = True,
        seed: int = 0,
    ) -> None:
        if isinstance(platform, str):
            from .registry import get_platform

            platform = get_platform(platform)
        self.platform = platform
        self.workload = _resolve_workload(workload)
        self.noise = noise
        self.seed = seed
        self.host_model = HostPerformanceModel(self.platform, self.workload)
        #: One model per installed accelerator (cards may differ); a
        #: deviceless platform keeps a primary-card model around so the
        #: degenerate space's (never-measured) device side stays wired.
        self.device_models = tuple(
            DevicePerformanceModel(self.platform, self.workload, device=k)
            for k in range(max(1, platform.num_devices))
        )
        self.device_model = self.device_models[0]
        self._experiments = 0
        #: Log storage: scalar ``Measurement`` entries interleaved with
        #: columnar blocks ``(side, device, threads, codes, mb, seconds)``.
        self._blocks: list = []
        self._noise_cache: dict[tuple, float] = {}

    @property
    def num_devices(self) -> int:
        """Accelerators this substrate can measure (the platform's count)."""
        return self.platform.num_devices

    # -- experiment accounting ------------------------------------------

    @property
    def experiment_count(self) -> int:
        """Number of measurements performed so far."""
        return self._experiments

    @property
    def log(self) -> list[Measurement]:
        """All measurements, in order (columnar blocks materialized)."""
        out: list[Measurement] = []
        for block in self._blocks:
            if isinstance(block, Measurement):
                out.append(block)
                continue
            side, device, threads, codes, mb, seconds = block
            domain = affinity_domain(side)
            out.extend(
                Measurement(side, int(t), domain[int(c)], float(m), float(s), device)
                for t, c, m, s in zip(threads, codes, mb, seconds)
            )
        return out

    # -- noise -----------------------------------------------------------

    def _perf(self, side: str, device: int):
        if side == "host":
            return self.platform.host_perf
        return self.platform.device_perf_for(device)

    def _sigma(self, side: str, affinity: str, device: int = 0) -> float:
        perf = self._perf(side, device)
        return perf.noise_sigma * perf.noise_scales.get(affinity, 1.0)

    def _noise_factor(
        self, side: str, threads: int, affinity: str, mb: float, device: int = 0
    ) -> float:
        if not self.noise:
            return 1.0
        key = (side, device, threads, affinity, mb)
        hit = self._noise_cache.get(key)
        if hit is None:
            z = _gaussian_scalar(
                self.seed,
                _side_code(side, device),
                threads,
                affinity_index(affinity, side),
                mb,
            )
            hit = max(1.0 + self._sigma(side, affinity, device) * z, _FACTOR_FLOOR)
            self._noise_cache[key] = hit
        return hit

    def _noise_factors(
        self,
        side: str,
        threads: np.ndarray,
        codes: np.ndarray,
        mb: np.ndarray,
        device: int = 0,
    ) -> np.ndarray:
        """Columnar noise factors; bit-identical to :meth:`_noise_factor`."""
        perf = self._perf(side, device)
        scales = perf.noise_scales
        domain = affinity_domain(side)
        scale_arr = np.array([scales.get(name, 1.0) for name in domain])
        sigma = perf.noise_sigma * scale_arr[codes]
        z = _gaussian_batch(self.seed, _side_code(side, device), threads, codes, mb)
        return np.maximum(1.0 + sigma * z, _FACTOR_FLOOR)

    # -- measurements ------------------------------------------------------

    def _model(self, side: str, device: int):
        return self.host_model if side == "host" else self.device_models[device]

    def _timed(
        self, side: str, threads: int, affinity: str, mb: float, device: int = 0
    ) -> float:
        """Pure timing (model + noise), no experiment accounting."""
        return self._model(side, device).time(threads, affinity, mb) * self._noise_factor(
            side, threads, affinity, mb, device
        )

    def _timed_columns(
        self,
        side: str,
        threads: np.ndarray,
        codes: np.ndarray,
        mb: np.ndarray,
        device: int = 0,
    ) -> np.ndarray:
        """Columnar pure timing; bit-identical to per-item :meth:`_timed`."""
        base = self._model(side, device).times_batch(threads, codes, mb)
        if not self.noise:
            return base
        return base * self._noise_factors(side, threads, codes, mb, device)

    def _measure(
        self, side: str, threads: int, affinity: str, mb: float, device: int = 0
    ) -> float:
        t = self._timed(side, threads, affinity, mb, device)
        self._experiments += 1
        self._blocks.append(Measurement(side, threads, affinity, mb, t, device))
        return t

    def measure_host(self, threads: int, affinity: str, mb: float) -> float:
        """Timed host experiment: scan ``mb`` MB with the given configuration."""
        return self._measure("host", threads, affinity, mb)

    def measure_device(
        self, threads: int, affinity: str, mb: float, *, device: int = 0
    ) -> float:
        """Timed experiment on accelerator ``device`` (offload region)."""
        return self._measure("device", threads, affinity, mb, device)

    def _measure_columns(
        self, side: str, threads, affinities, mb, device: int = 0
    ) -> np.ndarray:
        """Measure one side's configuration columns in one vectorized pass.

        Values, experiment counts, and the (lazily materialized)
        measurement log are identical to per-item ``measure_*`` calls.
        """
        domain = affinity_domain(side)
        threads_arr, codes, mb_arr = _side_columns(threads, affinities, mb, domain, side)
        times = self._timed_columns(side, threads_arr, codes, mb_arr, device)
        self._experiments += int(threads_arr.size)
        self._blocks.append((side, device, threads_arr, codes, mb_arr, times))
        return times

    def measure_host_columns(self, threads, affinities, mb) -> np.ndarray:
        """Columnar :meth:`measure_host` over equal-length arrays."""
        return self._measure_columns("host", threads, affinities, mb)

    def measure_device_columns(
        self, threads, affinities, mb, *, device: int = 0
    ) -> np.ndarray:
        """Columnar :meth:`measure_device` over equal-length arrays."""
        return self._measure_columns("device", threads, affinities, mb, device)

    def _measure_batch(self, side: str, items, device: int = 0) -> list[float]:
        """Measure many ``(threads, affinity, mb)`` items on one side.

        Values, experiment counts, and the measurement log are identical
        to per-item ``measure_*`` calls (noise is deterministic per
        configuration); the items go through the columnar fast path.
        """
        items = [(int(t), a, float(mb)) for t, a, mb in items]
        threads = np.fromiter((it[0] for it in items), dtype=np.int64, count=len(items))
        mb_arr = np.fromiter((it[2] for it in items), dtype=np.float64, count=len(items))
        affinities = [it[1] for it in items]
        return self._measure_columns(side, threads, affinities, mb_arr, device).tolist()

    def measure_host_batch(self, items) -> list[float]:
        """Batched :meth:`measure_host` over ``(threads, affinity, mb)`` items."""
        return self._measure_batch("host", items)

    def measure_device_batch(self, items) -> list[float]:
        """Batched :meth:`measure_device` on the first card over
        ``(threads, affinity, mb)`` items."""
        return self._measure_batch("device", items, 0)

    def true_host_time(self, threads: int, affinity: str, mb: float) -> float:
        """Noiseless host time; not counted as an experiment (oracle access)."""
        return self.host_model.time(threads, affinity, mb)

    def true_device_time(
        self, threads: int, affinity: str, mb: float, *, device: int = 0
    ) -> float:
        """Noiseless device time; not counted as an experiment (oracle access)."""
        return self.device_models[device].time(threads, affinity, mb)
