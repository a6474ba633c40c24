"""Hardware-thread topology enumeration for host and device.

A *slot* is one hardware thread, identified by ``(socket, core, hwthread)``
on the host and ``(core, hwthread)`` on the device (the device has a
single package).  :mod:`repro.machines.affinity` turns an abstract
affinity policy plus a thread count into a concrete list of slots; the
performance model then only looks at *placement statistics* (how many
cores/sockets are touched, how many threads share a core), which is what
actually determines throughput for a bandwidth-bound scan workload.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .spec import PhiSpec


@dataclass(frozen=True, order=True)
class Slot:
    """One hardware thread.  ``socket`` is 0 for device slots."""

    socket: int
    core: int
    hwthread: int


def device_slots(device: PhiSpec) -> list[Slot]:
    """Enumerate usable device hardware threads (OS-reserved cores excluded)."""
    return [
        Slot(0, c, t)
        for c in range(device.usable_cores)
        for t in range(device.threads_per_core)
    ]


@dataclass(frozen=True)
class PlacementStats:
    """Summary of a thread placement, consumed by the performance model.

    Attributes
    ----------
    n_threads:
        Number of software threads placed.
    cores_used:
        Distinct physical cores hosting at least one thread.
    sockets_used:
        Distinct sockets hosting at least one thread (1 for devices).
    threads_per_core:
        Histogram ``{occupancy: core count}``, e.g. ``{2: 12}`` means 12
        cores each run two threads.
    """

    n_threads: int
    cores_used: int
    sockets_used: int
    threads_per_core: tuple[tuple[int, int], ...]


def placement_stats(slots: Sequence[Slot]) -> PlacementStats:
    """Compute :class:`PlacementStats` for a concrete placement."""
    core_load: Counter[tuple[int, int]] = Counter()
    sockets: set[int] = set()
    for slot in slots:
        core_load[(slot.socket, slot.core)] += 1
        sockets.add(slot.socket)
    occupancy: Counter[int] = Counter(core_load.values())
    return PlacementStats(
        n_threads=len(slots),
        cores_used=len(core_load),
        sockets_used=len(sockets),
        threads_per_core=tuple(sorted(occupancy.items())),
    )


def sockets_used_column(stats: Sequence[PlacementStats]):
    """``sockets_used`` of many placements as one NumPy column.

    The vectorized performance model feeds this straight into the host
    scan-roofline array; importing numpy lazily keeps this module
    dependency-light for the pure-topology callers.
    """
    import numpy as np

    return np.array([s.sockets_used for s in stats], dtype=np.int64)
