"""The offload execution model: host and device parts overlap.

Paper section III: "we use the offload programming model.  We overlap
the parts offloaded to the co-processor with the ones that are running
on the host CPUs", so the application's wall-clock time is

``E = max(T_host, T_device)``                                  (Eq. 2)

— generalized to ``max(T_host, T_dev_1, ..., T_dev_k)`` on nodes with
several accelerators.  :func:`run_configuration` evaluates one system
configuration against a
:class:`~repro.machines.simulator.PlatformSimulator` and records the
per-part times; it is the bridge between the optimizer's abstract
configurations and the measurement substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..machines.simulator import PlatformSimulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..core.params import SystemConfiguration


@dataclass(frozen=True)
class ExecutionOutcome:
    """Wall-clock outcome of running one configuration.

    ``t_device`` is the primary accelerator; additional cards of a
    multi-device configuration ride in ``t_extra``.
    """

    t_host: float
    t_device: float
    t_extra: tuple[float, ...] = ()

    @property
    def t_devices(self) -> tuple[float, ...]:
        """Per-device times ``(device 0, ..., device N-1)``."""
        return (self.t_device, *self.t_extra)

    @property
    def total(self) -> float:
        """Application execution time under overlapped parts (Eq. 2)."""
        if not self.t_extra:
            return max(self.t_host, self.t_device)
        return max(self.t_host, self.t_device, *self.t_extra)

    @property
    def imbalance(self) -> float:
        """(slowest - fastest part) / total; 0 means perfectly balanced.

        For the host+1-device case this is the historical
        ``|T_host - T_device| / total``.
        """
        if self.total == 0.0:
            return 0.0
        parts = (self.t_host, *self.t_devices)
        return (max(parts) - min(parts)) / self.total


def resolve_simulator(sim) -> PlatformSimulator:
    """Accept a simulator or a registered platform name."""
    if isinstance(sim, PlatformSimulator):
        return sim
    return PlatformSimulator(sim)


def run_configuration(
    sim: "PlatformSimulator | str",
    config: "SystemConfiguration",
    size_mb: float,
) -> ExecutionOutcome:
    """Execute (measure) one configuration on the simulator.

    ``sim`` accepts a registered platform name as well as a built
    simulator, so runtime policies resolve substrates through the
    registry like every other layer.  A zero-share part contributes
    zero seconds and is not launched at all, exactly like a real
    offload runtime skipping an empty region.  The configuration must drive
    every card of the platform (deviceless platforms keep one wired,
    never-launched device side), so a card cannot be left idle by a
    configuration built for a smaller node.
    """
    sim = resolve_simulator(sim)
    cards = max(1, sim.num_devices)
    if config.num_devices != cards:
        raise ValueError(
            f"configuration has {config.num_devices} devices, "
            f"platform {sim.platform.name} has {cards}"
        )
    host_mb, device_mbs = config.part_megabytes(size_mb)
    th = (
        sim.measure_host(config.host_threads, config.host_affinity, host_mb)
        if host_mb > 0
        else 0.0
    )
    tds = [
        sim.measure_device(slot.threads, slot.affinity, mb, device=k)
        if mb > 0
        else 0.0
        for k, (slot, mb) in enumerate(zip(config.device_slots, device_mbs))
    ]
    return ExecutionOutcome(th, tds[0], tuple(tds[1:]))
