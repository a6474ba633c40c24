#!/usr/bin/env python
"""Quickstart: tune the work distribution for one workload.

Trains the performance predictor on the 7200-experiment grid once, then
asks SAML (simulated annealing + boosted decision trees) for a
near-optimal system configuration for a 3.17 GB input — the paper's
human-genome scenario — and compares it against the host-only and
device-only baselines and the exhaustive-enumeration optimum.

Run:  python examples/quickstart.py
"""

from repro import tune_scenario
from repro.experiments import default_context


def main() -> None:
    print("Training the performance predictor (7200 simulated experiments)...")
    models = default_context(0).models
    print(f"  host  model: {models.host_eval.mean_percent_error:.2f}% mean error")
    print(f"  device model: {models.device_eval.mean_percent_error:.2f}% mean error")
    print()

    # The paper's cell: its input is the human genome of the evaluation.
    # The report carries the suggestion, both baselines and the EM
    # optimum, and the models trained above are reused, not refitted.
    cell = tune_scenario("dna-paper", "emil", method="SAML", iterations=1000)
    report = cell.report
    print(f"Tuning for a {cell.size_mb:g} MB workload with SAML (1000 iterations)...")

    cfg = report.config
    print(f"  suggested configuration : {cfg.describe()}")
    print(f"    host   : {cfg.host_threads} threads, {cfg.host_affinity} affinity, "
          f"{cfg.host_fraction:g}% of the work")
    print(f"    device : {cfg.device_threads} threads, {cfg.device_affinity} affinity, "
          f"{cfg.device_fraction:g}% of the work")
    print(f"  measured execution time : {report.measured_time:.3f} s")
    print(f"  host-only (48 threads)  : {report.host_only_time:.3f} s "
          f"-> speedup {report.speedup_vs_host_only:.2f}x")
    print(f"  device-only (240 thr)   : {report.device_only_time:.3f} s "
          f"-> speedup {report.speedup_vs_device_only:.2f}x")
    print()

    print(f"Reference: exhaustive enumeration (EM, {report.space_size} experiments)...")
    print(f"  EM optimum             : {report.em_config.describe()} "
          f"at {report.em_time:.3f} s")
    gap = 100.0 * abs(report.em_time - report.measured_time) / report.em_time
    print(f"  SAML gap vs EM         : {gap:.1f}% "
          f"using ~{100.0 * 1000 / report.space_size:.0f}% of EM's experiments")


if __name__ == "__main__":
    main()
