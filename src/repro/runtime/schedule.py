"""Static and adaptive work-distribution schedules.

The paper's approach produces a *static* schedule (one fraction chosen
before the run).  Its future-work section (VI) names "adaptive
workload-aware approaches"; :class:`AdaptiveRebalancer` implements the
natural candidate: run a few timed rounds and move work toward the side
that finishes early, proportionally to the observed per-side throughput.
The ablation bench compares it against the SAML static schedule.
:func:`proportional_shares` is the static throughput-proportional
starting point for nodes with one or more accelerators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.params import DeviceSlot, SystemConfiguration
from ..machines.simulator import PlatformSimulator
from .offload import ExecutionOutcome, resolve_simulator, run_configuration


def proportional_shares(
    sim: "PlatformSimulator | str",
    host_threads: int,
    host_affinity: str,
    device_threads: int,
    device_affinity: str,
    size_mb: float,
) -> SystemConfiguration:
    """Shares proportional to each part's standalone throughput.

    Every part — the host and each card of the simulator's platform —
    gets a share proportional to its noise-free throughput on the full
    workload (a common static heuristic, cf. CoreTsar's linear model);
    every card runs ``device_threads`` / ``device_affinity``.
    """
    sim = resolve_simulator(sim)
    sim.platform.require_device("proportional shares split work across accelerators")
    host_t = sim.true_host_time(host_threads, host_affinity, size_mb)
    rates = [size_mb / host_t if host_t > 0 else 0.0]
    for k in range(sim.num_devices):
        t = sim.true_device_time(device_threads, device_affinity, size_mb, device=k)
        rates.append(size_mb / t if t > 0 else 0.0)
    total = sum(rates)
    shares = [100.0 * r / total for r in rates]
    # Largest-remainder style fixup to hit exactly 100.
    shares[0] += 100.0 - sum(shares)
    return SystemConfiguration(
        host_threads=host_threads,
        host_affinity=host_affinity,
        device_threads=device_threads,
        device_affinity=device_affinity,
        host_fraction=shares[0],
        extra_devices=tuple(
            DeviceSlot(device_threads, device_affinity, s) for s in shares[2:]
        ),
    )


@dataclass
class RebalanceStep:
    """One adaptive round: the fraction tried and what it produced."""

    host_fraction: float
    outcome: ExecutionOutcome


@dataclass
class AdaptiveRebalancer:
    """Throughput-proportional fraction adaptation.

    After each round with host share ``f`` the implied per-side rates are
    ``r_h = f / T_host`` and ``r_d = (100 - f) / T_device``; the balanced
    share is ``f* = 100 * r_h / (r_h + r_d)``.  ``damping`` in (0, 1]
    blends toward ``f*`` to avoid oscillation on noisy measurements.

    Thread counts/affinities stay fixed: adaptation happens at run time
    when respawning threads is not an option, which is exactly the gap
    the paper leaves to future work.
    """

    rounds: int = 4
    damping: float = 0.8
    min_fraction: float = 0.0
    max_fraction: float = 100.0
    history: list[RebalanceStep] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must be in (0, 1], got {self.damping}")
        if not 0.0 <= self.min_fraction < self.max_fraction <= 100.0:
            raise ValueError("need 0 <= min_fraction < max_fraction <= 100")

    def propose_next(self, f: float, outcome: ExecutionOutcome) -> float:
        """Balanced-share update given one observed round.

        On multi-device outcomes the "device side" is the slowest card
        (the one that gates Eq. 2); for N=1 this is the historical
        host/device update unchanged.
        """
        th, td = outcome.t_host, max(outcome.t_devices)
        if th <= 0.0:  # all work on device; claw some back for the host
            target = min(10.0, self.max_fraction)
        elif td <= 0.0:  # all work on host
            target = max(90.0, self.min_fraction)
        else:
            r_host = f / th
            r_device = (100.0 - f) / td
            target = 100.0 * r_host / (r_host + r_device)
        new = f + self.damping * (target - f)
        return float(min(self.max_fraction, max(self.min_fraction, new)))

    def run(
        self,
        sim: "PlatformSimulator | str",
        config: "SystemConfiguration",
        size_mb: float,
    ) -> "SystemConfiguration":
        """Adapt the fraction over ``rounds`` timed runs; returns the
        configuration with the final fraction.

        ``sim`` accepts a registered platform name as well as a built
        simulator; it is resolved once so every adaptive round hits the
        same substrate (and its columnar measurement log).

        On multi-device configurations only the host/primary-card
        boundary moves (extra-device shares are fixed at run time), so
        the host fraction is additionally capped at ``100 - sum(extra
        shares)`` — the most the host and primary card have between
        them.
        """
        self.history.clear()
        sim = resolve_simulator(sim)
        ceiling = min(
            self.max_fraction,
            100.0 - sum(slot.share for slot in config.extra_devices),
        )
        current = config
        f = min(config.host_fraction, ceiling)
        if f != config.host_fraction:
            current = config.with_fraction(f)
        for _ in range(self.rounds):
            outcome = run_configuration(sim, current, size_mb)
            self.history.append(RebalanceStep(f, outcome))
            f = min(self.propose_next(f, outcome), ceiling)
            current = current.with_fraction(f)
        return current

    @property
    def best_observed(self) -> RebalanceStep:
        """The best round seen so far."""
        if not self.history:
            raise RuntimeError("run() has not been called")
        return min(self.history, key=lambda s: s.outcome.total)
