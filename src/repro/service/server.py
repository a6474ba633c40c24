"""The concurrent campaign server: admission, dedup, coalescing, quotas.

:class:`CampaignServer` is a long-lived asyncio TCP server over
:func:`~repro.core.campaign.tune_scenario`.  Request handling lives on
the event loop; the tuning computations run *off* the loop through the
:mod:`repro.core.pool` executor plumbing (a process pool on the
package's preferred start method, or an in-process thread pool for
``processes=0``), so shards/refine and the vectorized walks compose
transparently with concurrent request service.

Admission, per cell, in order (the request lifecycle diagram lives in
``docs/architecture.md``):

1. **Store dedup** — the durable
   :class:`~repro.service.store.ResultStore` already holds this cell
   (from any earlier request, client, process, or server lifetime):
   answer immediately, zero computation.
2. **Coalescing** — an identical cell is in flight right now: join as
   a follower and await the leader's future; the leader's evaluation
   runs once and every follower's payload is the same object.
3. **Quota** — the client's evaluation budget is spent: reject the
   cell (``quota-exhausted``).  Store hits and coalesced joins are
   free; only leading an evaluation charges the budget.
4. **Saturation** — the bounded evaluation queue is full: reject with
   a ``retry_after`` estimate instead of queueing unboundedly.
5. **Evaluate** — lead: run the cell off-loop, merge the worker's EM
   cache entries back (persisting them through the bound store), store
   the served result, resolve the followers' future.

Every step streams a ``cell`` event to the client as it happens, so a
multi-cell submit reports cells incrementally as they finish.

Determinism: steps 1, 2, and 5 produce bit-identical payloads by
construction — the store round-trip is exact
(:mod:`repro.service.serde`), followers share the leader's payload,
and evaluations are pure functions of the cell key — so *when* a
result was computed, and by whom, is unobservable to clients.

Failure handling: evaluations run under a
:class:`~repro.reliability.RetryPolicy` with an optional per-attempt
deadline (``eval_deadline_s``) — a crashed or hung attempt is retried
with deterministic backoff, a broken process pool is rebuilt, and only
an exhausted budget surfaces as :class:`EvaluationFailed`.  A failed
or cancelled leader propagates a *structured* ``error`` cell event
(with ``retry_after``) to every coalesced follower — never a silently
unresolved future — and the in-flight entry is always cleared.  The
retry/timeout/degradation counters ride along in the ``stats`` op.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import time
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.reliability import (
    DEFAULT_RETRY_POLICY,
    SITE_EVALUATION,
    RetryPolicy,
    maybe_action,
    perform_action,
    reliability_stats,
)

from ..codec import decode, encode
from ..core import campaign as campaign_mod
from ..core.options import TuningOptions
from ..core.pool import pool_executor
from ..core.portfolio import PortfolioSpec
from ..dna.workloads import WorkloadSpec, get_workload, register_workload
from ..machines.registry import resolve_platform
from .protocol import (
    DEFAULT_HOST,
    REASON_BAD_REQUEST,
    REASON_QUOTA,
    REASON_SATURATED,
    SOURCE_COALESCED,
    SOURCE_EVALUATE,
    SOURCE_STORE,
    SubmitRequest,
    accepted_event,
    cell_event,
    decode_line,
    done_event,
    encode_line,
    error_event,
    rejected_event,
    stats_event,
)
from .serde import encode_scenario
from .store import CellKey, ResultStore


class EvaluationFailed(RuntimeError):
    """A cell evaluation exhausted its retry budget.

    Carries ``retry_after`` — the server's saturation-informed estimate
    of when a re-submit is worth trying — which rides the structured
    ``error`` cell event to the leading client and every coalesced
    follower.
    """

    def __init__(self, message: str, *, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


def _run_eval_job(args: tuple) -> tuple:
    """Executor-side wrapper: perform the decided fault, then evaluate.

    Module-level so it pickles to process-pool workers.  The fault
    *decision* happens on the event loop (where the injector's counters
    live); only the decided action ships here.  The worker is looked up
    on the campaign module at call time so tests can monkeypatch it.
    """
    action, job = args
    perform_action(action)
    return campaign_mod._tune_scenario_worker(job)


@dataclass
class ServiceStats:
    """Admission counters for one server lifetime."""

    requests: int = 0
    cells: int = 0
    store_hits: int = 0
    coalesced: int = 0
    evaluated: int = 0
    failed: int = 0
    rejected_quota: int = 0
    rejected_saturated: int = 0
    eval_retries: int = 0  # evaluation attempts retried under the policy
    eval_timeouts: int = 0  # attempts cut off by the per-request deadline
    executor_rebuilds: int = 0  # broken executors torn down and rebuilt
    client_spent: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return encode(self)


class CampaignServer:
    """Serve concurrent tuning requests against one durable store.

    ``max_pending`` bounds queued-plus-running evaluations (the
    graceful-saturation knob); ``quota`` is the per-client evaluation
    budget (``None`` = unlimited); ``processes=0`` evaluates on an
    in-process thread pool (tests, examples — the analytic core
    releases the GIL inside NumPy), ``processes>0`` fans out over a
    process pool via :func:`~repro.core.pool.pool_executor`.  Pass
    ``port=0`` to bind an ephemeral port (read it back from ``.port``
    after :meth:`start`).

    ``eval_deadline_s`` bounds every evaluation *attempt* (``None`` =
    no deadline); ``retry`` is the per-evaluation
    :class:`~repro.reliability.RetryPolicy` — a crashed or timed-out
    attempt is retried with deterministic backoff before the cell
    fails with :class:`EvaluationFailed`.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        max_pending: int = 8,
        quota: int | None = None,
        processes: int = 0,
        start_method: str | None = None,
        eval_deadline_s: float | None = None,
        retry: RetryPolicy | None = None,
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if quota is not None and quota < 0:
            raise ValueError(f"quota must be >= 0, got {quota}")
        if eval_deadline_s is not None and eval_deadline_s <= 0:
            raise ValueError(
                f"eval_deadline_s must be positive, got {eval_deadline_s}"
            )
        self.eval_deadline_s = eval_deadline_s
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self.store = store
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.quota = quota
        self.processes = processes
        self.start_method = start_method
        self.stats = ServiceStats()
        self._workers = processes if processes > 0 else min(max_pending, 4)
        self._in_flight: dict[CellKey, asyncio.Future] = {}
        self._pending = 0
        self._next_request_id = 0
        self._avg_eval_s = 0.0
        self._evals_observed = 0
        self._server: asyncio.AbstractServer | None = None
        self._executor = None
        self._previous_store = None
        self._stopped: asyncio.Event | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "CampaignServer":
        """Bind the socket, the executor, and the durable-store tier."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        # The server's store becomes the campaign layer's durable tier:
        # EM references computed by in-process evaluations (and worker
        # entries merged back) persist without any further plumbing.
        self._previous_store = campaign_mod.set_result_store(self.store)
        if self.processes > 0:
            self._executor = pool_executor(self.processes, self.start_method)
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="repro-eval"
            )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Close the socket, drain in-flight evaluations, unbind the store."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self._executor.shutdown(wait=True)
            )
            self._executor = None
        campaign_mod.set_result_store(self._previous_store)
        if self._stopped is not None:
            self._stopped.set()

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` runs (Ctrl-C or a ``shutdown`` op)."""
        assert self._stopped is not None, "call start() first"
        await self._stopped.wait()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        lock = asyncio.Lock()

        async def send(event: dict) -> None:
            async with lock:
                writer.write(encode_line(event))
                await writer.drain()

        stopping = False
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = decode_line(line)
                except ValueError as exc:
                    await send(error_event(str(exc)))
                    continue
                op = message.get("op")
                if op == "submit":
                    await self._handle_submit(message, send)
                elif op == "stats":
                    await send(stats_event(self.stats_payload()))
                elif op == "ping":
                    await send({"event": "pong"})
                elif op == "shutdown":
                    await send({"event": "stopping"})
                    stopping = True
                    break
                else:
                    await send(error_event(f"unknown op {op!r}"))
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                await writer.wait_closed()
        if stopping:
            await self.stop()

    async def _handle_submit(self, message: dict, send) -> None:
        self._next_request_id += 1
        request_id = self._next_request_id
        self.stats.requests += 1
        try:
            request = SubmitRequest.from_message(message)
            # Derived workload specs (client-side FASTA ingests) register
            # before cell resolution; a conflicting redefinition raises
            # and rejects the whole request below.  Identical re-submits
            # are no-ops, matching the registry's idempotence rule.
            for entry in request.derived:
                register_workload(decode(WorkloadSpec, entry))
            options = TuningOptions(
                engine=request.engine,
                batch_size=request.batch_size,
                shards=request.shards,
                refine=request.refine,
                transfer=request.transfer,
                portfolio=(
                    None
                    if request.portfolio is None
                    else PortfolioSpec.parse(request.portfolio)
                ),
            )
            cells = [
                CellKey.for_request(
                    workload,
                    platform,
                    method=request.method,
                    size_mb=request.size_mb,
                    iterations=request.iterations,
                    seed=request.seed,
                    options=options,
                )
                for workload in request.workloads
                for platform in request.platforms
            ]
            if not cells:
                raise ValueError("submit needs at least one workload and platform")
        except (TypeError, ValueError) as exc:
            await send(rejected_event(request_id, REASON_BAD_REQUEST, str(exc)))
            return
        await send(accepted_event(request_id, len(cells)))
        tallies = {
            "store_hits": 0,
            "coalesced": 0,
            "evaluated": 0,
            "rejected": 0,
            "errors": 0,
        }

        async def run_one(cell: CellKey) -> None:
            tag = await self._run_cell(request_id, request, cell, send)
            tallies[tag] += 1

        # Duplicate cells *within* one request coalesce like duplicates
        # across requests: the first occurrence leads, the rest follow.
        await asyncio.gather(*(run_one(cell) for cell in cells))
        await send(done_event(request_id, {"cells": len(cells), **tallies}))

    # -- per-cell admission and evaluation -----------------------------------

    async def _run_cell(
        self, request_id: int, request: SubmitRequest, cell: CellKey, send
    ) -> str:
        self.stats.cells += 1

        def event(status: str, **kwargs) -> dict:
            return cell_event(
                request_id, cell.workload, cell.platform, status, **kwargs
            )

        # 1. Durable-store dedup: any earlier request, process, or
        #    server lifetime may have paid for this cell already.
        hit = self.store.get_scenario(cell)
        if hit is not None:
            self.stats.store_hits += 1
            await send(
                event("done", source=SOURCE_STORE, payload=encode_scenario(hit))
            )
            return "store_hits"

        # 2. Coalescing: identical cell in flight -> follow its leader.
        #    (No awaits between this check and leader registration
        #    below, so admission is atomic under asyncio.)
        leader = self._in_flight.get(cell)
        if leader is not None:
            self.stats.coalesced += 1
            await send(event("start", source=SOURCE_COALESCED))
            try:
                payload = await asyncio.shield(leader)
            except BaseException as exc:
                # Catch BaseException: a cancelled leader surfaces as
                # CancelledError, which `except Exception` would miss —
                # the follower hang this guards against.  But if the
                # leader future is *not* done, the cancellation is our
                # own task's; re-raise it untouched.
                if isinstance(exc, asyncio.CancelledError) and not leader.done():
                    raise
                detail = str(exc) or "leader evaluation was cancelled"
                retry_after = getattr(exc, "retry_after", None)
                await send(
                    event(
                        "error",
                        error=detail,
                        retry_after=(
                            retry_after if retry_after is not None else self._retry_after()
                        ),
                    )
                )
                return "errors"
            await send(event("done", source=SOURCE_COALESCED, payload=payload))
            return "coalesced"

        # 3. Per-client budget quota (evaluations led, not cells asked).
        spent = self.stats.client_spent.get(request.client, 0)
        if self.quota is not None and spent >= self.quota:
            self.stats.rejected_quota += 1
            await send(event("rejected", reason=REASON_QUOTA))
            return "rejected"

        # 4. Bounded-queue saturation: reject with retry-after instead
        #    of queueing without limit.
        if self._pending >= self.max_pending:
            self.stats.rejected_saturated += 1
            await send(
                event(
                    "rejected",
                    reason=REASON_SATURATED,
                    retry_after=self._retry_after(),
                )
            )
            return "rejected"

        # 5. Lead the evaluation.
        self.stats.client_spent[request.client] = spent + 1
        self._pending += 1
        future: asyncio.Future = self._loop.create_future()
        # Retrieve the exception even when no follower is waiting, so a
        # failed leader never logs "exception was never retrieved".
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self._in_flight[cell] = future
        await send(event("start", source=SOURCE_EVALUATE))
        started = time.monotonic()
        try:
            payload = await self._evaluate(request, cell)
        except BaseException as exc:
            # BaseException so a cancelled leader still resolves the
            # followers' future instead of stranding them on one that
            # never completes.  Cancellation is translated to a regular
            # exception for the followers (their own await must not
            # look cancelled) and then re-raised for this task.
            self.stats.failed += 1
            shared = exc
            if isinstance(exc, asyncio.CancelledError):
                shared = EvaluationFailed(
                    "leader evaluation was cancelled",
                    retry_after=self._retry_after(),
                )
            future.set_exception(shared)
            if isinstance(exc, asyncio.CancelledError):
                raise
            retry_after = getattr(exc, "retry_after", None)
            await send(
                event(
                    "error",
                    error=str(exc),
                    retry_after=(
                        retry_after if retry_after is not None else self._retry_after()
                    ),
                )
            )
            return "errors"
        finally:
            del self._in_flight[cell]
            self._pending -= 1
        elapsed = time.monotonic() - started
        self._observe_eval(elapsed)
        self.stats.evaluated += 1
        future.set_result(payload)
        await send(
            event(
                "done",
                source=SOURCE_EVALUATE,
                payload=payload,
                elapsed=round(elapsed, 6),
            )
        )
        return "evaluated"

    async def _evaluate(self, request: SubmitRequest, cell: CellKey) -> dict:
        """One off-loop :func:`tune_scenario` run, store-integrated.

        Reuses the campaign layer's picklable fan-out worker and its
        pre-seed / merge-back cache protocol verbatim: the worker starts
        from the parent's EM references for *this cell only* — never the
        whole held cache, which it would re-merge into the store on
        every evaluation — and its fresh entries are merged (and
        persisted, via the bound store) on return.  The job
        carries *resolved* specs, not names — process-pool workers have
        fresh registries, where the server's runtime-registered derived
        workloads would not resolve.

        Runs under the server's retry policy: every attempt gets the
        ``eval_deadline_s`` deadline, crashed attempts (including a
        broken process pool, which is rebuilt) are retried with
        deterministic backoff, and an exhausted budget raises
        :class:`EvaluationFailed` with a ``retry_after`` estimate.
        Retried attempts recompute the same pure function, so which
        attempt succeeds is unobservable in the payload.
        """
        kwargs = dict(
            method=cell.method,
            size_mb=cell.size_mb,
            iterations=cell.iterations,
            seed=cell.seed,
            options=TuningOptions(
                engine=cell.engine,
                batch_size=cell.batch_size,
                shards=request.shards,
                refine=cell.refine,
                transfer=cell.transfer,
                portfolio=(
                    None
                    if cell.portfolio is None
                    else PortfolioSpec.parse(cell.portfolio)
                ),
            ),
        )
        workload = get_workload(cell.workload)
        platform = resolve_platform(cell.platform)
        job = (
            workload,
            platform,
            kwargs,
            campaign_mod._em_cache_snapshot(platform, workload),
        )
        policy = self.retry
        label = f"{cell.workload}@{cell.platform}"
        last_error = "evaluation failed"
        for attempt in range(policy.max_attempts):
            action = maybe_action(SITE_EVALUATION, label)
            try:
                report, fresh = await asyncio.wait_for(
                    self._loop.run_in_executor(
                        self._executor, _run_eval_job, (action, job)
                    ),
                    timeout=self.eval_deadline_s,
                )
            except asyncio.TimeoutError:
                self.stats.eval_timeouts += 1
                last_error = (
                    f"evaluation exceeded the {self.eval_deadline_s:g}s deadline"
                )
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                last_error = str(exc) or repr(exc)
                if isinstance(exc, BrokenExecutor):
                    self._rebuild_executor()
            else:
                campaign_mod._merge_em_entries(fresh)
                self.store.put_scenario(cell, report)
                return encode_scenario(report)
            if attempt + 1 >= policy.max_attempts:
                break
            self.stats.eval_retries += 1
            await asyncio.sleep(policy.backoff(attempt))
        raise EvaluationFailed(
            f"cell {cell.describe()}: {last_error}",
            retry_after=self._retry_after(),
        )

    def _rebuild_executor(self) -> None:
        """Replace a broken executor so later attempts have workers.

        A process pool whose worker died abnormally poisons every
        future submitted to it; tearing it down and rebuilding is the
        only recovery.  The thread-pool flavor never breaks this way,
        but the rebuild is harmless there too.
        """
        self.stats.executor_rebuilds += 1
        broken = self._executor
        if self.processes > 0:
            self._executor = pool_executor(self.processes, self.start_method)
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="repro-eval"
            )
        if broken is not None:
            broken.shutdown(wait=False)

    # -- saturation estimate and stats ---------------------------------------

    def _observe_eval(self, elapsed: float) -> None:
        """Running mean of evaluation latency (feeds retry-after)."""
        self._evals_observed += 1
        self._avg_eval_s += (elapsed - self._avg_eval_s) / self._evals_observed

    def _retry_after(self) -> float:
        """Rough seconds until a queue slot frees up.

        The queue drains a worker-wide wave every ``avg`` seconds, so a
        full queue clears a slot after about ``avg * ceil(pending /
        workers)``; before any evaluation completes the estimate falls
        back to one second per queued cell.
        """
        avg = self._avg_eval_s if self._evals_observed else 1.0
        waves = math.ceil(self._pending / max(1, self._workers))
        return round(max(avg, avg * waves), 2)

    def stats_payload(self) -> dict:
        """The ``stats`` op's payload: admission, store, reliability."""
        return {
            "server": {
                **self.stats.as_dict(),
                "in_flight": len(self._in_flight),
                "pending": self._pending,
                "max_pending": self.max_pending,
                "quota": self.quota,
                "avg_eval_s": round(self._avg_eval_s, 6),
                "eval_deadline_s": self.eval_deadline_s,
            },
            "store": {
                **self.store.stats.as_dict(),
                "path": self.store.path,
                "em_entries": self.store.count("em"),
                "scenario_entries": self.store.count("scenario"),
                "training_entries": self.store.count("training"),
                "models_entries": self.store.count("models"),
            },
            # The process-wide dispatch ledger (campaign fan-outs run in
            # this process share it with the evaluation loop above).
            "reliability": reliability_stats().as_dict(),
        }
