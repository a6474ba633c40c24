#!/usr/bin/env python
"""Quickstart: tune the work distribution for one workload.

Trains the performance predictor on the 7200-experiment grid once, then
asks SAML (simulated annealing + boosted decision trees) for a
near-optimal system configuration for a 3.17 GB input — the paper's
human-genome scenario — and compares it against the host-only and
device-only baselines and the exhaustive-enumeration optimum.

Run:  python examples/quickstart.py
"""

from repro import TuningOptions, WorkDistributionTuner

def main() -> None:
    tuner = WorkDistributionTuner(seed=0)

    print("Training the performance predictor (7200 simulated experiments)...")
    models = tuner.train()
    print(f"  host  model: {models.host_eval.mean_percent_error:.2f}% mean error")
    print(f"  device model: {models.device_eval.mean_percent_error:.2f}% mean error")
    print()

    size_mb = 3170.0  # the human genome of the paper's evaluation
    print(f"Tuning for a {size_mb:g} MB workload with SAML (1000 iterations)...")
    # Batched evaluation: the options' `engine` picks how candidate
    # configurations are scored — "serial" (one call each), "cached"
    # (memoize annealing revisits), "batched" (vectorized ML predictions),
    # or "cached+batched".  Results are identical across engines for the
    # deterministic evaluators used here; only throughput differs.  See
    # src/repro/core/engine.py and the README's "Batched evaluation".
    outcome = tuner.tune(
        size_mb, method="SAML", iterations=1000, options=TuningOptions(engine="cached")
    )

    cfg = outcome.config
    print(f"  suggested configuration : {cfg.describe()}")
    print(f"    host   : {cfg.host_threads} threads, {cfg.host_affinity} affinity, "
          f"{cfg.host_fraction:g}% of the work")
    print(f"    device : {cfg.device_threads} threads, {cfg.device_affinity} affinity, "
          f"{cfg.device_fraction:g}% of the work")
    print(f"  measured execution time : {outcome.result.measured_time:.3f} s")
    print(f"  host-only (48 threads)  : {outcome.host_only.value:.3f} s "
          f"-> speedup {outcome.speedup_vs_host_only:.2f}x")
    print(f"  device-only (240 thr)   : {outcome.device_only.value:.3f} s "
          f"-> speedup {outcome.speedup_vs_device_only:.2f}x")
    print()

    print("Reference: exhaustive enumeration (EM, 19926 experiments)...")
    em = tuner.tune(size_mb, method="EM")
    print(f"  EM optimum             : {em.config.describe()} "
          f"at {em.result.measured_time:.3f} s")
    gap = 100.0 * abs(em.result.measured_time - outcome.result.measured_time) \
        / em.result.measured_time
    print(f"  SAML gap vs EM         : {gap:.1f}% "
          f"using ~{100.0 * 1000 / tuner.space.size():.0f}% of EM's experiments")


if __name__ == "__main__":
    main()
