"""Ablation — static tuning vs dynamic task-farm scheduling (section V).

Ravi & Agrawal's dynamic framework needs no training and no search; it
pays per-task dispatch and chunked-transfer overheads instead.  This
bench sweeps the task granularity (the scheme's one knob) and compares
its best makespan against the EM optimum and SAML's suggestion.
"""

from baselines.taskfarm import TaskFarmScheduler
from conftest import run_once

from repro.core import run_em, run_saml
from repro.experiments import render_table
from repro.machines import PlatformSimulator

TASK_COUNTS = (2, 4, 8, 16, 32, 64, 128, 256, 512)


def test_taskfarm_vs_static_tuning(benchmark, ctx):
    size = 3170.0

    def compare():
        em = run_em(ctx.space, ctx.sim, size)
        saml = run_saml(ctx.space, ctx.ml(), ctx.sim, size, iterations=1000, seed=0)
        farm = TaskFarmScheduler(PlatformSimulator(seed=0), seed=0)
        sweep = farm.sweep_granularity(size, TASK_COUNTS)
        return em, saml, sweep

    em, saml, sweep = run_once(benchmark, compare)

    print()
    print(render_table(
        ["tasks", "makespan [s]", "host share %", "utilization"],
        [
            (n, r.makespan_s, r.host_share_percent, r.utilization)
            for n, r in sweep.items()
        ],
        title="Task-farm granularity sweep, human genome",
    ))
    best = min(sweep.values(), key=lambda r: r.makespan_s)
    print(f"\nEM = {em.measured_time:.3f} s, SAML@1000 = "
          f"{saml.measured_time:.3f} s, task farm best = {best.makespan_s:.3f} s")

    # The U-curve: extremes lose to the middle.
    makespans = [sweep[n].makespan_s for n in TASK_COUNTS]
    assert min(makespans) < makespans[0]
    assert min(makespans) < makespans[-1]
    # Dynamic scheduling self-balances close to the tuned static split
    # without any training (within 25% on this workload).
    assert best.makespan_s < em.measured_time * 1.25
    # The discovered share approximates the static optimum's fraction.
    assert 45.0 <= best.host_share_percent <= 75.0
