"""Reliability layer: deterministic fault injection and retry/recovery.

Two halves, one invariant.  :mod:`repro.reliability.faults` injects
seeded, addressable failures (worker crashes, hung evaluations, torn
store writes, transient I/O errors) at instrumented sites across the
stack; :mod:`repro.reliability.retry` supplies the policies and ledgers
the dispatch/store/server layers use to survive them.  Because every
measurement is a pure function of ``(seed, side, threads, affinity,
mb)``, a run under an adversarial fault plan returns bit-identical
reports to the fault-free run — only the retry/degradation counters
differ.
"""

from .faults import (
    KIND_CRASH,
    KIND_HANG,
    KIND_IO_ERROR,
    KIND_TORN_WRITE,
    SITE_ENUM_SHARD,
    SITE_EVALUATION,
    SITE_POOL_TASK,
    SITE_STORE_APPEND,
    SITE_STORE_IO,
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedIOError,
    arm_faults,
    armed_injector,
    disarm_faults,
    injected_faults,
    maybe_action,
    perform_action,
)
from .retry import (
    CONNECT_RETRY_POLICY,
    DEFAULT_RETRY_POLICY,
    STORE_RETRY_POLICY,
    DegradationEvent,
    RetryPolicy,
    RetryStats,
    reliability_stats,
    reset_reliability_stats,
)

__all__ = [
    "KIND_CRASH",
    "KIND_HANG",
    "KIND_IO_ERROR",
    "KIND_TORN_WRITE",
    "SITE_ENUM_SHARD",
    "SITE_EVALUATION",
    "SITE_POOL_TASK",
    "SITE_STORE_APPEND",
    "SITE_STORE_IO",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "InjectedIOError",
    "arm_faults",
    "armed_injector",
    "disarm_faults",
    "injected_faults",
    "maybe_action",
    "perform_action",
    "CONNECT_RETRY_POLICY",
    "DEFAULT_RETRY_POLICY",
    "STORE_RETRY_POLICY",
    "DegradationEvent",
    "RetryPolicy",
    "RetryStats",
    "reliability_stats",
    "reset_reliability_stats",
]
