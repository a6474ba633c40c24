"""Seeded, deterministic fault injection for the whole tuning stack.

Production campaigns see worker crashes, hung evaluations, and torn
store writes; this module makes those failures *reproducible* so the
retry/recovery machinery can be tested (and CI-gated) against the exact
same adversary every run.  Three pieces:

:class:`FaultSpec`
    One addressable fault: a *site* (where in the stack it fires), a
    *kind* (what happens), an optional *match* key (which hit at that
    site), and an ``after``/``times`` firing window over the site's hit
    counter.
:class:`FaultPlan`
    A frozen set of specs plus the seed it was derived from.  The
    :meth:`FaultPlan.adversarial` / :meth:`FaultPlan.adversarial_service`
    constructors derive which task crashes, which hangs, and which store
    append tears from the seed through the same splitmix64 mix the
    simulator noise uses — same seed, same faults, every run.
:class:`FaultInjector`
    The armed plan plus per-spec hit counters.  Instrumented sites call
    :func:`maybe_action` (a no-op when nothing is armed); the returned
    :class:`FaultAction` is *decided* wherever the counters live and
    *performed* (:func:`perform_action`) wherever the work runs — the
    dispatch layer decides in the parent process and ships the action
    inside the pooled job, so countdown state never has to survive a
    worker crash and results stay deterministic for every pool layout.

Faults never change *what* is computed: every injected failure is
retried or recovered by the reliability layer, and because measurements
are pure functions of ``(seed, side, threads, affinity, mb)``, a run
under an adversarial plan returns bit-identical reports to the
fault-free run — only the retry/degradation counters differ.  That
invariant is pinned by ``tests/reliability/`` and the CI chaos smoke.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..machines.simulator import _GOLDEN, _MASK64, _mix64

#: Instrumented sites, in stack order.
SITE_POOL_TASK = "pool.task"  # one campaign/matrix cell dispatch (key: task index)
SITE_ENUM_SHARD = "enum.shard"  # one share-simplex shard dispatch (key: shard index)
SITE_EVALUATION = "server.evaluation"  # one server-led evaluation (key: cell label)
SITE_STORE_APPEND = "store.append"  # one store line write (key: record kind)
SITE_STORE_IO = "store.io"  # transient I/O around store writes (key: record kind)

#: Fault kinds.
KIND_CRASH = "crash"  # raise InjectedCrash (a dead worker / dead process)
KIND_HANG = "hang"  # sleep duration_s before proceeding (a straggler)
KIND_TORN_WRITE = "torn-write"  # write a partial line, then fail the write
KIND_IO_ERROR = "io-error"  # raise InjectedIOError (a transient I/O fault)

def _draw(seed: int, index: int) -> int:
    """The ``index``-th deterministic 64-bit draw of a fault-plan seed.

    Uses the simulator's splitmix64 finalizer, so fault plans inherit
    the determinism argument of its seed-per-key noise.
    """
    return _mix64(((seed & _MASK64) + (index + 1) * _GOLDEN) & _MASK64)


class InjectedCrash(RuntimeError):
    """A deterministically injected crash (a worker or writer dying)."""


class InjectedIOError(OSError):
    """A deterministically injected transient I/O failure."""


@dataclass(frozen=True)
class FaultSpec:
    """One addressable fault: fire ``kind`` at ``site`` within a window.

    The site's hits are counted per matching spec; the spec fires on
    hits ``after <= n < after + times`` (zero-based).  ``match=None``
    matches every hit at the site; otherwise only hits whose context
    key equals ``match`` count.  ``duration_s`` is the sleep length for
    :data:`KIND_HANG` (ignored by the other kinds).
    """

    site: str
    kind: str
    match: str | None = None
    after: int = 0
    times: int = 1
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.kind == KIND_HANG and self.duration_s <= 0:
            raise ValueError("hang faults need a positive duration_s")


@dataclass(frozen=True)
class FaultAction:
    """A decided fault, ready to be performed where the work runs."""

    kind: str
    site: str
    key: str | None = None
    duration_s: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the specs derived from (or pinned alongside) it."""

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def adversarial(
        cls, seed: int, *, tasks: int = 4, hang_s: float = 0.5
    ) -> "FaultPlan":
        """The campaign adversary: crash one task, hang another, tear a write.

        ``tasks`` is how many pooled cells the run will dispatch; the
        crashed and hung task indices are distinct draws from ``seed``
        so every guaranteed fault actually manifests.  Also tears one
        store append and injects one transient store I/O error.
        """
        if tasks < 1:
            raise ValueError(f"tasks must be >= 1, got {tasks}")
        crash = _draw(seed, 0) % tasks
        hang = crash if tasks == 1 else (crash + 1 + _draw(seed, 1) % (tasks - 1)) % tasks
        return cls(
            seed=seed,
            specs=(
                FaultSpec(SITE_POOL_TASK, KIND_CRASH, match=str(crash)),
                FaultSpec(SITE_POOL_TASK, KIND_HANG, match=str(hang), duration_s=hang_s),
                FaultSpec(SITE_STORE_APPEND, KIND_TORN_WRITE, after=_draw(seed, 2) % 2),
                FaultSpec(SITE_STORE_IO, KIND_IO_ERROR, after=_draw(seed, 3) % 2),
            ),
        )

    @classmethod
    def adversarial_service(cls, seed: int, *, hang_s: float = 0.5) -> "FaultPlan":
        """The serve/submit adversary: crash, hang, and tear on the server.

        One evaluation attempt crashes and one hangs past the server's
        deadline (ordered by seed draw), one store append tears, and one
        transient store I/O error fires — all recovered by the server's
        retry policy and the store's write retry, so the served payload
        stays bit-identical to a fault-free cycle.
        """
        crash_first = _draw(seed, 0) % 2 == 0
        crash_at, hang_at = (0, 1) if crash_first else (1, 0)
        return cls(
            seed=seed,
            specs=(
                FaultSpec(SITE_EVALUATION, KIND_CRASH, after=crash_at),
                FaultSpec(SITE_EVALUATION, KIND_HANG, after=hang_at, duration_s=hang_s),
                FaultSpec(SITE_STORE_APPEND, KIND_TORN_WRITE, after=_draw(seed, 1) % 2),
                FaultSpec(SITE_STORE_IO, KIND_IO_ERROR, after=_draw(seed, 2) % 2),
            ),
        )


class FaultInjector:
    """An armed plan plus per-spec hit counters (one process's state).

    Every :meth:`action` call increments the counter of *each* matching
    spec and returns the first spec inside its firing window (or
    ``None``).  Counters are plain per-injector state: the dispatch
    layer keeps one injector in the parent and ships decided actions to
    workers, so a crashed worker never loses countdown state.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._hits = [0] * len(plan.specs)

    def action(self, site: str, key: str | None = None) -> FaultAction | None:
        """Decide the fault (if any) for one hit at ``site``."""
        fired: FaultAction | None = None
        for i, spec in enumerate(self.plan.specs):
            if spec.site != site:
                continue
            if spec.match is not None and key is not None and spec.match != key:
                continue
            n = self._hits[i]
            self._hits[i] = n + 1
            if fired is None and spec.after <= n < spec.after + spec.times:
                fired = FaultAction(spec.kind, site, key, spec.duration_s)
        return fired

    def fired(self) -> dict[str, int]:
        """Hit counts by ``site:kind`` (diagnostics and test assertions)."""
        out: dict[str, int] = {}
        for spec, hits in zip(self.plan.specs, self._hits):
            consumed = max(0, min(hits - spec.after, spec.times))
            if consumed:
                label = f"{spec.site}:{spec.kind}"
                out[label] = out.get(label, 0) + consumed
        return out


#: The process-wide armed injector (None = fault injection disabled;
#: every instrumented site is then a zero-cost no-op).
_ARMED: FaultInjector | None = None


def arm_faults(plan: FaultPlan) -> FaultInjector:
    """Arm a plan process-wide; returns the injector for inspection."""
    global _ARMED
    _ARMED = FaultInjector(plan)
    return _ARMED


def disarm_faults() -> None:
    """Disable fault injection (the production state)."""
    global _ARMED
    _ARMED = None


def armed_injector() -> FaultInjector | None:
    """The currently armed injector, or ``None``."""
    return _ARMED


@contextmanager
def injected_faults(plan: FaultPlan):
    """Arm ``plan`` for the duration of the block (tests, chaos smoke)."""
    injector = arm_faults(plan)
    try:
        yield injector
    finally:
        disarm_faults()


def maybe_action(site: str, key: str | None = None) -> FaultAction | None:
    """The armed injector's decision for one hit, or ``None`` when disarmed."""
    if _ARMED is None:
        return None
    return _ARMED.action(site, key)


def perform_action(action: FaultAction | None) -> None:
    """Perform a decided fault where the work runs (workers, threads).

    ``None`` and unknown kinds are no-ops; torn writes are performed by
    the store itself (it owns the bytes), so this helper only handles
    crash / hang / io-error.
    """
    if action is None:
        return
    if action.kind == KIND_CRASH:
        raise InjectedCrash(f"injected crash at {action.site} (key={action.key})")
    if action.kind == KIND_HANG:
        time.sleep(action.duration_s)
    elif action.kind == KIND_IO_ERROR:
        raise InjectedIOError(f"injected I/O error at {action.site} (key={action.key})")
