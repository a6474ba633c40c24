"""Fleet/matrix bit-identity under seeded fault plans (the headline invariant).

A pooled ``tune_matrix`` run under an adversarial plan — one cell
crashing, one hanging past the per-attempt deadline — must return a
result *equal* to the fault-free run: measurements are pure functions
of their arguments, so retries and degradations are unobservable in
the payload.  Only the ``reliability`` ledger (excluded from equality)
tells the runs apart.
"""

import multiprocessing

import pytest

from repro.core import tune_matrix
from repro.core.options import TuningOptions
from repro.reliability import FaultPlan, RetryPolicy, RetryStats, injected_faults

WORKLOADS = ("dna-paper", "short-read")
PLATFORMS = ("emil", "slowlink")
ITERS = 60
SIZE_MB = 600.0

SERIAL_RETRY = RetryPolicy(max_attempts=3, backoff_s=0.01, max_backoff_s=0.05)
POOLED_RETRY = RetryPolicy(
    max_attempts=3, timeout_s=1.0, backoff_s=0.01, max_backoff_s=0.05
)


def matrix(options=None, workloads=WORKLOADS):
    return tune_matrix(
        workloads,
        PLATFORMS,
        method="SAM",
        size_mb=SIZE_MB,
        iterations=ITERS,
        seed=0,
        options=options,
    )


def fleet(options=None):
    """A one-workload matrix: the dna-paper row over ``PLATFORMS``."""
    return matrix(options, workloads=("dna-paper",))


class TestMatrixChaos:
    def test_serial_run_matches_fault_free_twin(self):
        baseline = matrix()
        assert baseline.reliability is not None and baseline.reliability.clean
        plan = FaultPlan.adversarial(seed=5, tasks=4, hang_s=0.02)
        with injected_faults(plan):
            chaotic = matrix(TuningOptions(retry=SERIAL_RETRY))
        assert chaotic == baseline  # reliability is compare=False by design
        assert not chaotic.reliability.clean
        assert chaotic.reliability.retries >= 1

    def test_pooled_run_matches_fault_free_twin(self):
        baseline = matrix()
        plan = FaultPlan.adversarial(seed=9, tasks=4, hang_s=2.5)
        with injected_faults(plan):
            chaotic = matrix(
                TuningOptions(processes=2, start_method="fork", retry=POOLED_RETRY)
            )
        assert chaotic == baseline
        assert not chaotic.reliability.clean
        assert chaotic.reliability.crashes + chaotic.reliability.timeouts >= 1

    def test_ledger_rides_on_the_result(self):
        result = matrix()
        assert isinstance(result.reliability, RetryStats)
        assert result.reliability.attempts >= len(result.reports)


class TestFleetChaos:
    def test_fleet_survives_the_adversary(self):
        baseline = fleet()
        plan = FaultPlan.adversarial(seed=2, tasks=2, hang_s=0.02)
        with injected_faults(plan):
            chaotic = fleet(TuningOptions(retry=SERIAL_RETRY))
        assert chaotic == baseline
        assert not chaotic.reliability.clean

    def test_adversary_never_changes_the_winner(self):
        # A different seed steers the faults at different cells; the
        # tuned configurations must not move.
        baseline = fleet()
        for seed in (1, 4):
            plan = FaultPlan.adversarial(seed=seed, tasks=2, hang_s=0.02)
            with injected_faults(plan):
                chaotic = fleet(TuningOptions(retry=SERIAL_RETRY))
            assert [r.config for r in chaotic] == [r.config for r in baseline]
            assert [r.report.measured_time for r in chaotic] == [
                r.report.measured_time for r in baseline
            ]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pooled chaos pins fork (see test_pool_chaos module docstring)",
)
class TestPooledFleetChaos:
    def test_pooled_fleet_matches_fault_free_twin(self):
        baseline = fleet()
        plan = FaultPlan.adversarial(seed=13, tasks=2, hang_s=2.5)
        with injected_faults(plan):
            chaotic = fleet(
                TuningOptions(processes=2, start_method="fork", retry=POOLED_RETRY)
            )
        assert chaotic == baseline
        assert not chaotic.reliability.clean
