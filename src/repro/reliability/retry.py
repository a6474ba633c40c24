"""Retry policies with deterministic backoff, and the reliability ledger.

:class:`RetryPolicy` is the one knob object for every retry loop in the
stack — pooled campaign cells and enumeration shards
(:func:`repro.core.pool.run_tasks`), server-led evaluations
(:class:`repro.service.server.CampaignServer`), store writes
(:class:`repro.service.store.ResultStore`), and client connects
(:class:`repro.service.client.ServiceClient`).  Backoff is exponential
with *deterministic* jitter: the jitter factor for attempt ``a`` under
key ``k`` is a pure splitmix64 function of ``(policy.seed, k, a)``, so
two runs of the same plan wait the same schedule — reproducibility all
the way down, matching the simulator's seed-per-key noise scheme.

:class:`RetryStats` is the ledger those loops write: attempts, retries,
timeouts, crashes, pool rebuilds, and :class:`DegradationEvent` records
for every rung taken on the degradation ladder (re-dispatch → pool
rebuild → serial in-process fallback).  A module-global instance
(:func:`reliability_stats`) aggregates across the process so campaign
reports and the server's stats op can surface the counters without
plumbing a stats object through every call chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machines.simulator import _GOLDEN, _MASK64, _mix64


@dataclass(frozen=True)
class RetryPolicy:
    """How a failing operation is retried: attempts, deadline, backoff.

    ``max_attempts`` counts *total* tries (1 = no retries).
    ``timeout_s`` is the per-attempt deadline enforced by callers that
    can preempt (pooled dispatch, the server's evaluation await);
    ``None`` disables deadlines.  Backoff before attempt ``a+1`` is
    ``backoff_s * multiplier**a`` capped at ``max_backoff_s``, scaled
    by a deterministic jitter in ``[1 - jitter, 1 + jitter]`` derived
    from ``(seed, key, attempt)`` — see :meth:`backoff`.
    """

    max_attempts: int = 3
    timeout_s: float | None = None
    backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff(self, attempt: int, key: int = 0) -> float:
        """Seconds to wait after failed attempt ``attempt`` (zero-based).

        Deterministic: the jitter factor is a pure function of
        ``(seed, key, attempt)`` through the splitmix64 finalizer, so
        retried runs reproduce their own waits.  ``key`` separates
        concurrent retry loops (task index, shard index) so they do not
        back off in lockstep.
        """
        base = min(self.backoff_s * self.multiplier**attempt, self.max_backoff_s)
        state = _mix64(
            (self.seed & _MASK64) ^ _mix64(((key + 1) * _GOLDEN + attempt) & _MASK64)
        )
        unit = state / float(_MASK64 + 1)  # uniform in [0, 1)
        return base * (1.0 - self.jitter + 2.0 * self.jitter * unit)


#: Default policy for pooled dispatch and server evaluations: three
#: total attempts, no per-attempt deadline (long legitimate runs must
#: not be killed by default), sub-second capped backoff.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Default policy for store writes: quick in-process retries only.
STORE_RETRY_POLICY = RetryPolicy(max_attempts=3, backoff_s=0.01, max_backoff_s=0.1)

#: Default policy for client connects: a restarting server needs time.
CONNECT_RETRY_POLICY = RetryPolicy(max_attempts=3, backoff_s=0.2, max_backoff_s=2.0)


@dataclass(frozen=True)
class DegradationEvent:
    """One rung taken on the degradation ladder, for the record."""

    site: str  # the fault site / dispatch site that degraded
    reason: str  # "pool-rebuild" / "serial-fallback" / "pool-unavailable"
    detail: str = ""


@dataclass
class RetryStats:
    """The reliability ledger one dispatch loop (or the process) writes."""

    attempts: int = 0  # tries started, including first attempts
    retries: int = 0  # re-dispatches after a failed attempt
    timeouts: int = 0  # attempts cut off by the per-attempt deadline
    crashes: int = 0  # attempts that raised (worker death, injected crash)
    pool_rebuilds: int = 0  # dead pools torn down and rebuilt
    degradations: int = 0  # tasks that fell back to serial in-process
    events: list[DegradationEvent] = field(default_factory=list)

    def record(self, event: DegradationEvent) -> None:
        self.events.append(event)

    def merge(self, other: "RetryStats") -> None:
        self.attempts += other.attempts
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.crashes += other.crashes
        self.pool_rebuilds += other.pool_rebuilds
        self.degradations += other.degradations
        self.events.extend(other.events)

    @property
    def clean(self) -> bool:
        """True when nothing failed (the counters a healthy run shows)."""
        return self.retries == 0 and self.degradations == 0 and self.timeouts == 0

    def as_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "pool_rebuilds": self.pool_rebuilds,
            "degradations": self.degradations,
            "events": [
                {"site": e.site, "reason": e.reason, "detail": e.detail}
                for e in self.events
            ],
        }


#: Process-wide aggregate: every dispatch loop merges its ledger here,
#: so the server's stats op and ad-hoc callers see one total.
_GLOBAL_STATS = RetryStats()


def reliability_stats() -> RetryStats:
    """The process-wide reliability ledger (aggregated across calls)."""
    return _GLOBAL_STATS


def reset_reliability_stats() -> None:
    """Zero the process-wide ledger (tests, server lifetimes)."""
    global _GLOBAL_STATS
    _GLOBAL_STATS = RetryStats()
