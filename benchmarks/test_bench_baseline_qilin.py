"""Ablation — SAML vs the Qilin-style baseline (related work, section V).

Qilin profiles each device on a few small inputs, fits linear time
models, and picks the split analytically — 6 experiments, no training,
but no thread/affinity tuning.  SAML pays the 7200-experiment training
once and then tunes the full configuration for free.  This bench
quantifies the trade-off the paper's related-work section argues.
"""

from baselines.qilin import QilinPartitioner
from conftest import run_once

from repro.core import run_em, run_saml
from repro.experiments import render_table
from repro.machines import PlatformSimulator
from repro.runtime import run_configuration


def test_saml_vs_qilin(benchmark, ctx):
    size = 3170.0

    def compare():
        em = run_em(ctx.space, ctx.sim, size)
        saml = run_saml(ctx.space, ctx.ml(), ctx.sim, size, iterations=1000, seed=0)

        qilin_sim = PlatformSimulator(seed=0)
        q = QilinPartitioner()
        q.profile(qilin_sim, size)
        q_cfg = q.configuration(size)
        q_time = run_configuration(qilin_sim, q_cfg, size).total
        return em, saml, q_cfg, q_time, q.profiling_experiments

    em, saml, q_cfg, q_time, q_exp = run_once(benchmark, compare)
    rows = [
        ("EM (oracle)", em.config.describe(), 19926, em.measured_time),
        ("SAML@1000", saml.config.describe(), 1, saml.measured_time),
        ("Qilin-style", q_cfg.describe(), q_exp, q_time),
    ]
    print()
    print(render_table(
        ["method", "configuration", "experiments", "time [s]"],
        rows,
        title="SAML vs Qilin-style adaptive mapping, human genome",
    ))

    # Both beat doing nothing; SAML's larger space should match or beat
    # Qilin's fraction-only tuning (they coincide when max threads win).
    assert q_time < 2.0 * em.measured_time
    assert saml.measured_time <= q_time * 1.10
