"""Process-pool start-method selection and fault-tolerant dispatch.

Two jobs live here.  :func:`pool_context` answers "which
multiprocessing context should a pool use?" for the matrix cell fan-out
(:func:`~repro.core.campaign.tune_matrix`) and the share-simplex shard
pool (:func:`~repro.core.enumeration.enumerate_best_separable`).
:func:`run_tasks` is the dispatch loop those layers actually call: it
fans a list of pure, pickled jobs across a pool under a
:class:`~repro.reliability.RetryPolicy`, re-dispatching crashed or
timed-out tasks, rebuilding a wedged pool once, and degrading the rest
of the run to serial in-process execution rather than aborting — every
rung recorded in a :class:`~repro.reliability.RetryStats` ledger.

The start-method preference order is ``forkserver`` > ``spawn`` >
``fork``: ``fork`` duplicates the whole parent — including any
NumPy/BLAS thread pool mid-lock — which can deadlock a worker before
it runs a single job.  ``forkserver`` forks from a clean
single-threaded server process (cheap *and* safe); ``spawn`` is the
portable fallback.  ``fork`` is kept last for exotic builds that
compile out the other two.  A method that is advertised but fails to
initialise (some hardened containers break ``forkserver``) is skipped,
not fatal.

Every computation fanned out here is deterministic given its pickled
arguments, so neither the start method nor the retry schedule changes
results — re-running a pure task yields the same bytes.  Pinned by the
start-method regression tests and the ``tests/reliability`` chaos
suite.
"""

from __future__ import annotations

import multiprocessing
import time

from repro.reliability import (
    DEFAULT_RETRY_POLICY,
    SITE_POOL_TASK,
    DegradationEvent,
    RetryPolicy,
    RetryStats,
    maybe_action,
    perform_action,
    reliability_stats,
)

#: Start methods in preference order (safest viable first).
START_METHOD_PREFERENCE = ("forkserver", "spawn", "fork")


def pool_context(prefer: str | None = None):
    """The multiprocessing context every pool in this package should use.

    ``prefer`` forces a specific start method (mainly for the
    start-method-independence regression tests); it must be available on
    this interpreter.  Without it, the first available method of
    :data:`START_METHOD_PREFERENCE` that actually initialises wins — a
    method that is advertised but broken (raises on ``get_context``) is
    skipped rather than fatal.
    """
    available = multiprocessing.get_all_start_methods()
    if prefer is not None:
        if prefer not in available:
            raise ValueError(
                f"start method {prefer!r} not available; have: {available}"
            )
        return multiprocessing.get_context(prefer)
    for method in START_METHOD_PREFERENCE:
        if method not in available:
            continue
        try:
            return multiprocessing.get_context(method)
        except (ValueError, RuntimeError, OSError):
            continue
    return multiprocessing.get_context()  # pragma: no cover - no known platform


def pool_executor(processes: int):
    """A ``ProcessPoolExecutor`` on this package's preferred context.

    The ``concurrent.futures`` twin of ``pool_context(...).Pool(...)``
    for callers that need awaitable futures rather than a blocking
    ``map`` — the campaign server runs its off-loop evaluations through
    this so asyncio request handling and simplex walks share the same
    start-method policy (and the same determinism argument: workers
    receive fully pickled, self-contained jobs).
    """
    from concurrent.futures import ProcessPoolExecutor

    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    return ProcessPoolExecutor(max_workers=processes, mp_context=pool_context())


def _task_shim(payload):
    """Worker-side wrapper: perform the decided fault, then run the job.

    Module-level so it pickles under every start method.  The fault
    *decision* happens in the parent (where the injector's counters
    live); only the decided :class:`~repro.reliability.FaultAction`
    ships here, so a crashed worker never loses countdown state.
    """
    action, worker, job = payload
    perform_action(action)
    return worker(job)


def _serial_attempts(worker, job, index, site, policy, stats):
    """Run one job in-process under the retry policy; always completes.

    The last rung runs the job directly with no fault action, so an
    adversarial plan can never wedge a serial run; a *genuine*
    deterministic error in the worker still propagates from that final
    call.  In-process execution cannot preempt, so hang faults simply
    sleep here and per-attempt deadlines are not enforced.
    """
    for attempt in range(policy.max_attempts):
        action = maybe_action(site, str(index))
        stats.attempts += 1
        try:
            perform_action(action)
            return worker(job)
        except Exception as exc:
            stats.crashes += 1
            if attempt + 1 >= policy.max_attempts:
                stats.degradations += 1
                stats.record(
                    DegradationEvent(site, "serial-fallback", f"task {index}: {exc!r}")
                )
                break
            stats.retries += 1
            delay = policy.backoff(attempt, index)
            if delay > 0:
                time.sleep(delay)
    stats.attempts += 1
    return worker(job)


def run_tasks(
    worker,
    jobs,
    *,
    processes: int | None = None,
    start_method: str | None = None,
    policy: RetryPolicy | None = None,
    site: str = SITE_POOL_TASK,
):
    """Fan ``jobs`` across a pool with retries; never abort the batch.

    Returns ``(results, stats)`` where ``results`` is in job order and
    ``stats`` is the :class:`~repro.reliability.RetryStats` ledger for
    this call (also merged into the process-wide aggregate).  ``worker``
    must be a module-level function of one pickled job — every caller
    here fans out *pure* tasks, which is what makes re-dispatch safe:
    a retried task returns bit-identical results.

    The degradation ladder, in order:

    1. a crashed attempt is re-dispatched to the (healthy) pool, with
       deterministic backoff, up to ``policy.max_attempts`` tries;
    2. a timed-out or pool-breaking attempt tears the pool down and
       rebuilds it **once**, resubmitting every uncollected task;
    3. anything still failing — or any failure after the one rebuild —
       runs serially in-process with no fault action, recording a
       :class:`~repro.reliability.DegradationEvent`.

    With ``processes`` unset (or 1, or a single job) the whole batch
    runs in-process through the same retry loop.
    """
    jobs = list(jobs)
    policy = policy if policy is not None else DEFAULT_RETRY_POLICY
    stats = RetryStats()
    n = len(jobs)
    results: list = [None] * n
    if n == 0:
        return results, stats

    def finish():
        reliability_stats().merge(stats)
        return results, stats

    size = 0 if processes is None else min(processes, n)
    if size <= 1:
        for i, job in enumerate(jobs):
            results[i] = _serial_attempts(worker, job, i, site, policy, stats)
        return finish()

    context = pool_context(start_method)
    try:
        pool = context.Pool(size)
    except Exception as exc:
        stats.degradations += 1
        stats.record(DegradationEvent(site, "pool-unavailable", repr(exc)))
        for i, job in enumerate(jobs):
            results[i] = _serial_attempts(worker, job, i, site, policy, stats)
        return finish()

    def submit(pool, i):
        action = maybe_action(site, str(i))
        stats.attempts += 1
        return pool.apply_async(_task_shim, ((action, worker, jobs[i]),))

    tries = [1] * n  # failure budget consumed per task
    rebuilt = False
    abandoned = False
    try:
        pending = {i: submit(pool, i) for i in range(n)}
        i = 0
        while i < n:
            if abandoned:
                # the pool is gone for good; finish the batch in-process
                results[i] = _serial_attempts(worker, jobs[i], i, site, policy, stats)
                i += 1
                continue
            handle = pending.pop(i)
            wedged = False
            try:
                results[i] = handle.get(timeout=policy.timeout_s)
                i += 1
                continue
            except multiprocessing.TimeoutError:
                stats.timeouts += 1
                wedged = True
                failure = "per-attempt deadline exceeded"
            except Exception as exc:
                stats.crashes += 1
                failure = repr(exc)
            if wedged:
                # the worker is stuck mid-task; every uncollected result
                # dies with the pool, so rebuild (once) and resubmit them
                pool.terminate()
                pool.join()
                if rebuilt:
                    abandoned = True
                    stats.degradations += 1
                    stats.record(
                        DegradationEvent(
                            site, "serial-fallback", f"task {i}: {failure} (pool spent)"
                        )
                    )
                    results[i] = worker(jobs[i])
                    stats.attempts += 1
                    i += 1
                    continue
                rebuilt = True
                stats.pool_rebuilds += 1
                stats.record(
                    DegradationEvent(site, "pool-rebuild", f"task {i}: {failure}")
                )
                pool = context.Pool(size)
                for j in range(i + 1, n):
                    pending[j] = submit(pool, j)
            if tries[i] < policy.max_attempts:
                tries[i] += 1
                stats.retries += 1
                delay = policy.backoff(tries[i] - 2, i)
                if delay > 0:
                    time.sleep(delay)
                try:
                    pending[i] = submit(pool, i)
                    continue
                except Exception as exc:  # the pool itself is broken
                    stats.crashes += 1
                    failure = repr(exc)
            stats.degradations += 1
            stats.record(DegradationEvent(site, "serial-fallback", f"task {i}: {failure}"))
            results[i] = worker(jobs[i])
            stats.attempts += 1
            i += 1
    finally:
        pool.terminate()
        pool.join()
    return finish()
