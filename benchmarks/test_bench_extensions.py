"""Ablation — the implemented extensions (DESIGN.md section 6).

* Adaptive rebalancing (paper future work) vs the SAML static schedule.
* Multi-accelerator scaling (1-4 devices) with proportional shares.
"""

from conftest import run_once

from repro.core import run_saml
from repro.core.params import SystemConfiguration
from repro.experiments import render_table
from repro.machines import EMIL, PlatformSimulator
from repro.runtime import AdaptiveRebalancer, proportional_shares, run_configuration


def test_adaptive_vs_static_schedule(benchmark, ctx):
    size = 3170.0
    ml = ctx.ml()

    def compare():
        saml = run_saml(ctx.space, ml, ctx.sim, size, iterations=1000, seed=0)
        start = SystemConfiguration(48, "scatter", 240, "balanced", 50.0)
        reb = AdaptiveRebalancer(rounds=5)
        adapted = reb.run(ctx.sim, start, size)
        adaptive_time = run_configuration(ctx.sim, adapted, size).total
        return saml.measured_time, adaptive_time, adapted.host_fraction

    static_time, adaptive_time, final_fraction = run_once(benchmark, compare)
    print()
    print(render_table(
        ["schedule", "measured time [s]"],
        [
            ("SAML static (1000 iters + training)", static_time),
            (f"adaptive (5 rounds, -> {final_fraction:.1f}% host)", adaptive_time),
        ],
        title="Adaptive rebalancing vs static SAML schedule, human genome",
        float_format="{:.4f}",
    ))
    # The adaptive scheme gets within 25% of the tuned static schedule
    # with 5 measurements and no training (it cannot tune threads).
    assert adaptive_time < static_time * 1.25


def test_multidevice_scaling(benchmark):
    size = 3170.0

    def scale():
        rows = []
        for n in (1, 2, 3, 4):
            sim = PlatformSimulator(EMIL.with_devices(n), seed=0)
            cfg = proportional_shares(sim, 48, "scatter", 240, "balanced", size)
            rows.append((n, cfg.host_fraction, run_configuration(sim, cfg, size).total))
        return rows

    rows = run_once(benchmark, scale)
    print()
    print(render_table(
        ["devices", "host share %", "exec time [s]"],
        rows,
        title="Multi-accelerator scaling (proportional shares), human genome",
        float_format="{:.3f}",
    ))
    times = [r[2] for r in rows]
    assert all(a > b for a, b in zip(times, times[1:]))
    # Diminishing returns: 4 devices < 4x speedup over 1.
    assert times[0] / times[-1] < 4.0
