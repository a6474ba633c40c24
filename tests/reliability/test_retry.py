"""Retry policies, deterministic backoff, and the ledger (reliability/retry.py)."""

import pytest

from repro.reliability import (
    DEFAULT_RETRY_POLICY,
    DegradationEvent,
    RetryPolicy,
    RetryStats,
    reliability_stats,
    reset_reliability_stats,
)


class TestRetryPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_attempts=0),
            dict(timeout_s=0.0),
            dict(timeout_s=-1.0),
            dict(backoff_s=-0.1),
            dict(multiplier=0.5),
            dict(jitter=-0.1),
            dict(jitter=1.0),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_defaults_are_sane(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 3
        assert DEFAULT_RETRY_POLICY.timeout_s is None  # no default deadline


class TestDeterministicBackoff:
    def test_same_inputs_same_wait(self):
        policy = RetryPolicy(seed=7)
        for attempt in range(4):
            assert policy.backoff(attempt, key=3) == policy.backoff(attempt, key=3)

    def test_jitter_stays_within_the_band(self):
        policy = RetryPolicy(backoff_s=0.1, multiplier=2.0, max_backoff_s=1.0, jitter=0.25)
        for attempt in range(6):
            base = min(0.1 * 2.0**attempt, 1.0)
            for key in range(8):
                wait = policy.backoff(attempt, key)
                assert base * 0.75 <= wait <= base * 1.25

    def test_zero_jitter_is_exact_exponential(self):
        policy = RetryPolicy(backoff_s=0.1, multiplier=2.0, max_backoff_s=0.5, jitter=0.0)
        assert [policy.backoff(a) for a in range(4)] == [0.1, 0.2, 0.4, 0.5]

    def test_keys_desynchronize_concurrent_loops(self):
        policy = RetryPolicy()
        waits = {policy.backoff(0, key) for key in range(16)}
        assert len(waits) == 16

    def test_seed_moves_the_schedule(self):
        assert RetryPolicy(seed=1).backoff(0) != RetryPolicy(seed=2).backoff(0)


class TestRetryStats:
    def test_merge_and_clean(self):
        a, b = RetryStats(), RetryStats()
        b.attempts, b.retries, b.timeouts = 4, 1, 1
        b.record(DegradationEvent("pool.task", "pool-rebuild", "task 2"))
        assert a.clean and not b.clean
        a.merge(b)
        assert (a.attempts, a.retries, a.timeouts) == (4, 1, 1)
        assert a.events == b.events and not a.clean

    def test_as_dict_spells_out_events(self):
        stats = RetryStats()
        stats.record(DegradationEvent("store.io", "serial-fallback", "why"))
        payload = stats.as_dict()
        assert payload["events"] == [
            {"site": "store.io", "reason": "serial-fallback", "detail": "why"}
        ]

    def test_process_wide_ledger_resets(self):
        reliability_stats().attempts += 5
        assert reliability_stats().attempts == 5
        reset_reliability_stats()
        assert reliability_stats().attempts == 0
