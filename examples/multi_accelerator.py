#!/usr/bin/env python
"""Multi-accelerator work distribution (extension of paper section II-A).

The paper's platform carries one Xeon Phi, but the architecture it
describes allows up to eight.  This example scales the node from one to
four accelerators, distributes the human-genome workload with the
throughput-proportional heuristic, and reports how the overall
execution time and the host share evolve.

Run:  python examples/multi_accelerator.py
"""

from repro.machines import EMIL, PlatformSimulator
from repro.runtime import proportional_shares, run_configuration


def main() -> None:
    size_mb = 3170.0
    print(f"Workload: {size_mb:g} MB DNA scan, host 48 threads (scatter), "
          f"each Phi 240 threads (balanced)\n")
    print(f"{'devices':>8s} {'host %':>8s} {'per-Phi %':>10s} "
          f"{'exec time [s]':>14s} {'vs 1 device':>12s}")

    base_time = None
    for n in (1, 2, 3, 4):
        sim = PlatformSimulator(EMIL.with_devices(n), seed=0)
        config = proportional_shares(sim, 48, "scatter", 240, "balanced", size_mb)
        outcome = run_configuration(sim, config, size_mb)
        if base_time is None:
            base_time = outcome.total
        per_phi = config.device_slots[0].share
        print(f"{n:8d} {config.host_fraction:8.1f} {per_phi:10.1f} "
              f"{outcome.total:14.3f} {base_time / outcome.total:12.2f}x")

    print("\nEach extra accelerator takes an equal slice; the host share "
          "shrinks and E = max over all parts keeps dropping until PCIe "
          "overheads dominate.")


if __name__ == "__main__":
    main()
