"""Dynamic task-farm scheduling baseline (related work, section V).

Ravi & Agrawal [9] schedule heterogeneous systems by splitting the
workload into many small tasks that processing elements pull as they
become free.  Against the paper's *static* configuration tuning this
trades per-task dispatch overhead for automatic load balance — no
training, no search, no knowledge of device speeds.

The implementation is a small discrete-event simulation over the same
performance model the rest of the reproduction uses: each side is a
server whose per-task service time is ``task_mb / side_rate`` plus a
dispatch overhead (and, for the device, the exposed slice of the
per-task PCIe transfer).  A greedy earliest-free-server dispatcher is
makespan-optimal for identical tasks, so the simulation is exact.

The granularity sweep (`sweep_granularity`) exposes the classic
trade-off curve: too few tasks leaves the slower side idle at the end;
too many drowns in dispatch overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machines.interconnect import offload_cost
from repro.machines.simulator import PlatformSimulator


@dataclass(frozen=True)
class TaskRecord:
    """One scheduled task in the timeline."""

    task: int
    worker: str  # "host" or "device"
    start_s: float
    end_s: float


@dataclass(frozen=True)
class TaskFarmResult:
    """Outcome of one task-farm run."""

    makespan_s: float
    host_tasks: int
    device_tasks: int
    host_busy_s: float
    device_busy_s: float
    timeline: tuple[TaskRecord, ...]

    @property
    def host_share_percent(self) -> float:
        """Fraction of tasks the host ended up pulling."""
        total = self.host_tasks + self.device_tasks
        return 100.0 * self.host_tasks / total if total else 0.0

    @property
    def utilization(self) -> float:
        """Mean busy fraction of the two workers over the makespan."""
        if self.makespan_s == 0.0:
            return 0.0
        return (self.host_busy_s + self.device_busy_s) / (2.0 * self.makespan_s)


class TaskFarmScheduler:
    """Greedy pull-based two-worker scheduler over the platform model.

    Parameters
    ----------
    sim:
        Measurement substrate (its noiseless models provide rates; task
        noise is drawn separately per task, seeded).
    host_threads / host_affinity / device_threads / device_affinity:
        Fixed execution configuration of each worker.
    dispatch_overhead_s:
        Queue-pop plus launch cost per task, both sides.
    task_noise_sigma:
        Log-normal sigma of per-task service-time noise.
    """

    def __init__(
        self,
        sim: PlatformSimulator,
        *,
        host_threads: int = 48,
        host_affinity: str = "scatter",
        device_threads: int = 240,
        device_affinity: str = "balanced",
        dispatch_overhead_s: float = 0.002,
        task_noise_sigma: float = 0.02,
        seed: int = 0,
    ) -> None:
        if dispatch_overhead_s < 0:
            raise ValueError("dispatch_overhead_s must be >= 0")
        self.sim = sim
        self.host_rate = sim.host_model.rate_mbs(host_threads, host_affinity)
        self.device_rate = sim.device_model.rate_mbs(device_threads, device_affinity)
        self.dispatch_overhead_s = dispatch_overhead_s
        self.task_noise_sigma = task_noise_sigma
        self.seed = seed
        self._workload = sim.workload
        self._link = sim.platform.interconnect

    def _service_time(self, side: str, task_mb: float, noise: float) -> float:
        base = self.dispatch_overhead_s + task_mb / (
            self.host_rate if side == "host" else self.device_rate
        )
        if side == "device":
            # Per-task transfers overlap less than one bulk offload does:
            # halve the profile's overlap factor.
            cost = offload_cost(
                task_mb,
                self._link,
                overlap_factor=self._workload.transfer_overlap * 0.5,
                result_mb=self._workload.result_mb,
            )
            # The launch latency is paid once per farm, not per task
            # (persistent offload region with a task queue).
            base += cost.exposed_transfer_s
        return base * noise

    def run(self, size_mb: float, n_tasks: int) -> TaskFarmResult:
        """Simulate farming ``size_mb`` megabytes as ``n_tasks`` tasks."""
        if size_mb <= 0:
            raise ValueError(f"size_mb must be positive, got {size_mb}")
        if n_tasks < 1:
            raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
        rng = np.random.default_rng(self.seed)
        task_mb = size_mb / n_tasks
        free = {"host": 0.0, "device": self._link.latency_s}  # one-off launch
        counts = {"host": 0, "device": 0}
        busy = {"host": 0.0, "device": 0.0}
        timeline: list[TaskRecord] = []
        for task in range(n_tasks):
            worker = min(free, key=lambda w: free[w])
            noise = float(np.exp(rng.normal(0.0, self.task_noise_sigma)))
            service = self._service_time(worker, task_mb, noise)
            start = free[worker]
            free[worker] = start + service
            counts[worker] += 1
            busy[worker] += service
            timeline.append(TaskRecord(task, worker, start, free[worker]))
        makespan = max(free["host"], free["device"] if counts["device"] else 0.0)
        return TaskFarmResult(
            makespan_s=makespan,
            host_tasks=counts["host"],
            device_tasks=counts["device"],
            host_busy_s=busy["host"],
            device_busy_s=busy["device"],
            timeline=tuple(timeline),
        )

    def sweep_granularity(
        self, size_mb: float, task_counts: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128, 256)
    ) -> dict[int, TaskFarmResult]:
        """Makespan across task granularities (the classic U-curve)."""
        return {n: self.run(size_mb, n) for n in task_counts}

    def best_granularity(self, size_mb: float, task_counts=None) -> tuple[int, TaskFarmResult]:
        """The sweep's argmin -> (n_tasks, result)."""
        sweep = (
            self.sweep_granularity(size_mb)
            if task_counts is None
            else self.sweep_granularity(size_mb, task_counts)
        )
        n = min(sweep, key=lambda k: sweep[k].makespan_s)
        return n, sweep[n]
