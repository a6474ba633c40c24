"""The benchmark's four workloads.

Each runner builds a fresh process state (its set-up), runs closed-loop
operations for ``ctx.seconds``, checks every operation's output, and
returns the metrics of ``BENCHMARK.json`` as ``name -> (value, samples,
source)``.  Operations go through user-facing entry points only: the
``repro`` tuning functions, ``python -m repro serve`` and the service
wire protocol.  ``NOTES.md`` says why each workload exists.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from run import median, percentile
from spans import Tracer, layer_totals, write_chrome_trace

#: Pool processes plus client connections each workload keeps busy.
LOAD = {"sam-matrix": 2, "saml-cold": 1, "portfolio-transfer": 1, "serve-mixed": 2}

#: The four seeds a sam-matrix / serve-mixed working set cycles through.
CYCLE = 4
#: Schedule raced by portfolio-transfer: one rung at the full budget, so
#: every entrant runs all 1000 evaluations and the work of an op does not
#: depend on which entrants a seed's race would eliminate.
PORTFOLIO = "sh:1000x2"
PORTFOLIO_CELLS = (("dna-paper", "short-read"), ("emil", "quadphi"))
SAML_CELL = ("dna-paper", "emil")
#: SAM budget of every served cell, and the cell the serve-mixed writer
#: re-evaluates (one cell, so every evaluation costs the same).
SERVE_ITERATIONS = 300
WRITER_CELL = ("dna-paper", "emil")


@dataclass
class Context:
    repro: object
    root: Path
    seed: int
    seconds: float
    trace: bool
    started: float
    tracer: Tracer | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def out_dir(self) -> Path:
        path = self.root / ".perfbench_out"
        path.mkdir(exist_ok=True)
        return path

    def seeds(self, n: int) -> list[int]:
        """``n`` distinct tuning seeds derived from the workload seed."""
        return random.Random(self.seed).sample(range(1, 2**31), n)

    def say(self, line: str) -> None:
        print(line, flush=True)


@dataclass
class Op:
    start: float
    end: float
    traced: bool
    ok: bool

    @property
    def seconds(self) -> float:
        return self.end - self.start


def held_working_set(repro) -> dict[str, int]:
    """EM references and trained models this process holds in memory.

    The package has no public accessor for its in-memory caches, so
    this reads their sizes (and only their sizes); a key reads ``-1``
    when a refactor has moved the cache, and the size checks then skip
    it.
    """
    import repro.core.campaign as campaign
    import repro.ml.transfer as transfer

    def size(module, name):
        cache = getattr(module, name, None)
        return -1 if cache is None else len(cache)

    return {
        "em_refs": size(campaign, "_EM_CACHE"),
        "cached_models": size(transfer, "_MODEL_CACHE"),
    }


def closed_loop(ctx: Context, op) -> tuple[list[Op], float]:
    """Run ``op(i)`` back to back for ``ctx.seconds``.

    A traced run alternates traced and untraced operations (at least
    one of each), so the difference of their medians is the tracing
    overhead.  An operation that raises counts as failed.
    """
    ops: list[Op] = []
    tracer = ctx.tracer
    begin = time.perf_counter()
    while time.perf_counter() - begin < ctx.seconds or len(ops) < (2 if tracer else 1):
        traced = tracer is not None and len(ops) % 2 == 0
        if tracer is not None:
            tracer.enabled = traced
        start = time.perf_counter()
        try:
            ok = bool(op(len(ops)))
        except Exception:
            traceback.print_exc()
            ok = False
        ops.append(Op(start, time.perf_counter(), traced, ok))
    if tracer is not None:
        tracer.enabled = False
    return ops, time.perf_counter() - begin


def e2e_metrics(ctx, setup_s, ops, window, experiments, distance, what) -> dict:
    lat = [op.seconds for op in ops]
    if len(lat) <= 16:
        ctx.notes.append("# op seconds: " + " ".join(f"{x:.3f}" for x in lat))
    return {
        "setup_s": (setup_s, 1, "process start to first timed op"),
        "op_s_p50": (median(lat), len(lat), what),
        "ops_per_s": (len(ops) / window, len(ops), what),
        "experiments_per_op": (experiments[0], experiments[1], "fixed reference ops"),
        "optimum_distance_mean": (distance[0], distance[1], "fixed reference cells"),
    }


# -- per-layer metrics -------------------------------------------------------

#: metric name -> (span name, field): ``self_s`` seconds, ``calls`` or
#: ``n`` (the wrapper's count: rows, configurations or bytes).
SPAN_METRICS = {
    "ml.tree.fit_calls": ("ml.tree.fit", "calls"),
    "ml.tree.fit_s": ("ml.tree.fit", "self_s"),
    "ml.boosting.fit_s": ("ml.boosting.fit", "self_s"),
    "ml.boosting.continue_fit_s": ("ml.boosting.continue_fit", "self_s"),
    "core.training.grid_s": ("core.training.grid", "self_s"),
    "core.training.grid_rows": ("core.training.grid", "n"),
    "core.training.train_s": ("core.training.train", "self_s"),
    "ml.transfer.cell_models_s": ("ml.transfer.cell_models", "self_s"),
    "ml.boosting.predict_calls": ("ml.boosting.predict", "calls"),
    "ml.boosting.predict_s": ("ml.boosting.predict", "self_s"),
    "core.evaluators.predicted_configs": ("core.evaluators.predict", "n"),
    "core.evaluators.predict_s": ("core.evaluators.predict", "self_s"),
    "search.RS.run_s": ("search.RS.run", "self_s"),
    "search.HC.run_s": ("search.HC.run", "self_s"),
    "search.TABU.run_s": ("search.TABU.run", "self_s"),
    "search.GA.run_s": ("search.GA.run", "self_s"),
    "search.ACO.run_s": ("search.ACO.run", "self_s"),
    "core.portfolio.race_s": ("core.portfolio.race", "self_s"),
    "core.engine.evaluate_calls": ("core.engine.evaluate", "calls"),
    "core.engine.evaluate_s": ("core.engine.evaluate", "self_s"),
    "core.annealing.run_s": ("core.annealing.run", "self_s"),
    "core.methods.run_s": ("core.methods.run", "self_s"),
    "core.evaluators.measured_configs": ("core.evaluators.measure", "n"),
    "core.evaluators.measure_s": ("core.evaluators.measure", "self_s"),
    "machines.simulator.measure_calls": ("machines.simulator.measure", "calls"),
    "machines.simulator.measure_s": ("machines.simulator.measure", "self_s"),
    "core.campaign.cell_s": ("core.campaign.cell", "self_s"),
    "core.enumeration.walk_calls": ("core.enumeration.walk", "calls"),
    "core.enumeration.walk_s": ("core.enumeration.walk", "self_s"),
    "core.pool.run_tasks_s": ("core.pool.run_tasks", "self_s"),
    "core.pool.job_bytes": ("core.pool.run_tasks", "n"),
    "service.store.put_em_calls": ("service.store.put_em", "calls"),
    "service.store.get_s": ("service.store.get", "self_s"),
    "service.serde.encode_s": ("service.serde.encode", "self_s"),
    "service.serde.decode_s": ("service.serde.decode", "self_s"),
}

TRANSFER_METRICS = {
    "ml.transfer.cold_fits": "cold_fits",
    "ml.transfer.warm_fits": "warm_fits",
    "ml.transfer.memory_hits": "models_memory_hits",
}


@dataclass
class Pass:
    """Spans of one part of a traced run, normalized per operation."""

    label: str
    totals: dict
    per: int  # operations the totals cover

    def value(self, span: str, what: str) -> float:
        return self.totals.get(span, {}).get(what, 0) / max(1, self.per)


def span_metrics(passes: dict[str, Pass], route: dict[str, str]) -> dict:
    """Every span metric, each from the pass ``route`` names (default ``ops``)."""
    out = {}
    for metric, (span, what) in SPAN_METRICS.items():
        p = passes[route.get(metric, "ops")]
        out[metric] = (p.value(span, what), p.per, p.label)
    return out


def in_window(start: float, end: float):
    return lambda span: start <= span[3] < end


def transfer_counters() -> dict:
    from repro.ml.transfer import transfer_stats

    return transfer_stats().as_dict()


def transfer_delta(before: dict) -> dict:
    now = transfer_counters()
    return {k: now[k] - before.get(k, 0) for k in now}


def trace_layer_metrics(ctx, passes, route, ops, window, extra) -> dict:
    """Per-layer metrics plus tracing overhead for an in-process workload."""
    traced = [op.seconds for op in ops if op.traced]
    plain = [op.seconds for op in ops if not op.traced]
    metrics = span_metrics(passes, route)
    metrics["trace.op_s_p50_overhead"] = (
        median(traced) - median(plain), len(ops), "traced minus untraced op p50"
    )
    metrics["trace.ops_per_s_overhead"] = (
        1.0 / median(traced) - 1.0 / median(plain), len(ops), "traced minus untraced"
    )
    fit = passes["ops"].value("ml.tree.fit", "self_s")
    metrics["ml.tree.fit_share"] = (
        fit / median(traced), len(traced), "tree-fit self time / traced op time"
    )
    metrics.update(extra)
    return metrics


def top_self_times(ctx, p: Pass, op_s: float) -> None:
    ranked = sorted(p.totals.items(), key=lambda kv: -kv[1]["self_s"])[:6]
    ctx.notes.append(f"# largest self times per op ({p.label}, op {op_s:.3f} s):")
    for name, entry in ranked:
        share = entry["self_s"] / max(1, p.per) / op_s
        ctx.notes.append(
            f"#   {name:<32} {entry['self_s'] / max(1, p.per):9.4f} s  {100 * share:5.1f}%"
        )


def start_tracer(ctx) -> None:
    if ctx.trace:
        ctx.tracer = Tracer()
        ctx.tracer.install()
        ctx.tracer.enabled = True


def finish_tracer(ctx, name: str) -> None:
    ctx.tracer.enabled = False
    ctx.tracer.uninstall()
    path = ctx.out_dir / f"trace-{name}-{ctx.seed}.json"
    write_chrome_trace(str(path), [(os.getpid(), ctx.tracer.spans)])
    ctx.say(f"# chrome trace: {path}")


def working_set_line(ctx, when: str, held: dict) -> None:
    ctx.say(f"# working set at {when}: " + ", ".join(f"{k}={v}" for k, v in held.items()))


def same_size(before: dict, after: dict, keys) -> bool:
    return all(before[k] == after[k] or before[k] < 0 for k in keys)


def workset_metrics(held: dict) -> dict:
    return {
        "workset.em_refs": (held.get("em_refs", -1), 1, "held at end of run"),
        "workset.stored_cells": (held.get("stored_cells", 0), 1, "held at end of run"),
        "workset.cached_models": (held.get("cached_models", -1), 1, "held at end of run"),
    }


#: Per-layer metrics only serve-mixed exercises.
SERVE_METRICS = (
    "service.store.duplicates",
    "service.store.file_bytes",
    "service.server.eval_s_p50",
    "service.server.wait_s_p50",
    "service.server.rejected",
    "service.server.eval_retries",
    "serve.hit_s_p50",
    "serve.hit_s_p98",
    "serve.hits_per_s",
)


def not_exercised(*names) -> dict:
    return {name: (0.0, 0, "not exercised") for name in names}


def spans_during(spans, ops) -> list:
    """Spans that start inside one of ``ops``' time windows."""
    return [s for s in spans if any(o.start <= s[3] < o.end for o in ops)]


# -- sam-matrix ---------------------------------------------------------------


def sam_matrix(ctx: Context) -> dict:
    repro = ctx.repro
    seeds = ctx.seeds(CYCLE)
    pooled = repro.TuningOptions(processes=2)
    start_tracer(ctx)
    # A traced run sets up serially, so the EM walks happen in this
    # process where the wrappers see them; pool workers run unwrapped.
    setup_options = None if ctx.trace else pooled
    setup_begin = time.perf_counter()
    reference = {s: repro.tune_matrix(method="SAM", seed=s, options=setup_options) for s in seeds}
    setup_end = time.perf_counter()
    setup_s = setup_end - ctx.started
    held = held_working_set(repro)
    working_set_line(ctx, "start", held)
    cells = [c for s in seeds for c in reference[s]]
    setup_ok = all(c.optimum_distance >= 1.0 for c in cells)
    retries = []

    def op(i: int) -> bool:
        s = seeds[i % CYCLE]
        result = repro.tune_matrix(method="SAM", seed=s, options=pooled)
        if ctx.tracer is not None and ctx.tracer.enabled:
            retries.append(result.reliability.retries)
        return (
            all(c.optimum_distance >= 1.0 for c in result)
            and [c.total_experiments for c in result]
            == [c.total_experiments for c in reference[s]]
            and result == reference[s]
        )

    ops, window = closed_loop(ctx, op)
    after = held_working_set(repro)
    working_set_line(ctx, "end", after)
    stable = same_size(held, after, ("em_refs", "cached_models"))
    experiments = (
        sum(c.total_experiments for c in cells) / CYCLE,
        CYCLE,
    )
    distance = (sum(c.optimum_distance for c in cells) / len(cells), len(cells))
    result = {"attempted": len(ops), "failed": sum(not o.ok for o in ops),
              "correct": setup_ok and stable, "notes": ctx.notes}
    if not ctx.trace:
        result["metrics"] = e2e_metrics(
            ctx, setup_s, ops, window, experiments, distance, "42-cell pooled SAM matrix"
        )
        return result
    # In-cell layers: a serial traced pass over the first seed's cells.
    ctx.tracer.enabled = True
    serial_begin = time.perf_counter()
    serial_ok = repro.tune_matrix(method="SAM", seed=seeds[0]) == reference[seeds[0]]
    serial_end = time.perf_counter()
    ctx.tracer.enabled = False
    result["attempted"] += 1
    result["failed"] += not serial_ok
    spans = ctx.tracer.spans
    traced_ops = [o for o in ops if o.traced]
    pooled_spans = spans_during(spans, traced_ops)
    passes = {
        "setup": Pass("serial setup", layer_totals(spans, in_window(setup_begin, setup_end)), 1),
        "pooled": Pass("pooled ops", layer_totals(pooled_spans), len(traced_ops)),
        "ops": Pass(
            "serial pass", layer_totals(spans, in_window(serial_begin, serial_end)), 1
        ),
    }
    route = {
        "core.enumeration.walk_calls": "setup",
        "core.enumeration.walk_s": "setup",
        "core.pool.run_tasks_s": "pooled",
        "core.pool.job_bytes": "pooled",
    }
    extra = {
        "core.pool.retries": (sum(retries) / max(1, len(retries)), len(retries), "pooled ops"),
        "core.engine.cache_hits": (
            sum(c.report.engine_cache_hits for c in cells) / CYCLE, CYCLE, "reference ops"
        ),
        "core.portfolio.useful_ratio": useful_ratio(cells),
        **not_exercised(*TRANSFER_METRICS),
        **not_exercised(*SERVE_METRICS),
        **workset_metrics(after),
    }
    top_self_times(ctx, passes["ops"], serial_end - serial_begin)
    ctx.notes.append(
        f"# pooled op p50 traced/untraced: "
        f"{median([o.seconds for o in traced_ops]):.3f}/"
        f"{median([o.seconds for o in ops if not o.traced]):.3f} s"
    )
    result["metrics"] = trace_layer_metrics(ctx, passes, route, ops, window, extra)
    finish_tracer(ctx, "sam-matrix")
    return result


def useful_ratio(cells) -> tuple:
    experiments = sum(c.report.experiments for c in cells)
    evaluations = sum(c.report.search_evaluations for c in cells)
    return (experiments / max(1, evaluations), len(cells), "experiments / search evaluations")


# -- saml-cold ----------------------------------------------------------------


def saml_cold(ctx: Context) -> dict:
    repro = ctx.repro
    workload, platform = SAML_CELL
    warm_seed, *seeds = ctx.seeds(257)
    start_tracer(ctx)
    space = repro.workload_space(repro.get_workload(workload), repro.get_platform(platform))
    # One cheap measurement-only cell loads every lazy table; the model
    # cache stays empty, so each timed op trains from scratch.
    warm = repro.tune_scenario(workload, platform, method="SAM", seed=warm_seed)
    setup_s = time.perf_counter() - ctx.started
    held = held_working_set(repro)
    working_set_line(ctx, "start", held)
    stats_before = transfer_counters()
    reports = []

    def op(i: int) -> bool:
        report = repro.tune_scenario(workload, platform, method="SAML", seed=seeds[i])
        reports.append(report)
        return report.config in space and report.optimum_distance >= 1.0

    ops, window = closed_loop(ctx, op)
    after = held_working_set(repro)
    working_set_line(ctx, "end", after)
    ctx.notes.append(
        f"# model cache grew by {after['cached_models'] - held['cached_models']} "
        f"over {len(ops)} ops (one cold fit per op, by design)"
    )
    first = reports[0]
    result = {"attempted": len(ops), "failed": sum(not o.ok for o in ops),
              "correct": warm.optimum_distance >= 1.0, "notes": ctx.notes}
    if not ctx.trace:
        result["metrics"] = e2e_metrics(
            ctx, setup_s, ops, window, (first.total_experiments, 1),
            (first.optimum_distance, 1), "cold SAML cell, dna-paper@emil",
        )
        return result
    spans = ctx.tracer.spans
    traced_ops = [o for o in ops if o.traced]
    op_spans = spans_during(spans, traced_ops)
    passes = {"ops": Pass("traced ops", layer_totals(op_spans), len(traced_ops))}
    delta = transfer_delta(stats_before)
    extra = {
        metric: (delta[key] / len(ops), len(ops), "all ops")
        for metric, key in TRANSFER_METRICS.items()
    }
    traced_reports = [r for r, o in zip(reports, ops) if o.traced]
    extra.update(
        {
            **not_exercised("core.pool.retries"),
            "core.engine.cache_hits": (
                sum(r.report.engine_cache_hits for r in traced_reports) / len(traced_reports),
                len(traced_reports), "traced ops",
            ),
            "core.portfolio.useful_ratio": useful_ratio(reports),
            **not_exercised(*SERVE_METRICS),
            **workset_metrics(after),
        }
    )
    top_self_times(ctx, passes["ops"], median([o.seconds for o in traced_ops]))
    result["metrics"] = trace_layer_metrics(ctx, passes, {}, ops, window, extra)
    finish_tracer(ctx, "saml-cold")
    return result


# -- portfolio-transfer -------------------------------------------------------


def portfolio_transfer(ctx: Context) -> dict:
    repro = ctx.repro
    from repro.core.portfolio import PortfolioSpec

    (seed,) = ctx.seeds(1)
    workloads, platforms = PORTFOLIO_CELLS
    options = repro.TuningOptions(transfer=True, portfolio=PortfolioSpec.parse(PORTFOLIO))
    start_tracer(ctx)
    stats_before = transfer_counters()
    setup_begin = time.perf_counter()
    reference = repro.tune_matrix(workloads, platforms, seed=seed, options=options)
    setup_end = time.perf_counter()
    setup_s = setup_end - ctx.started
    setup_delta = transfer_delta(stats_before)
    held = held_working_set(repro)
    working_set_line(ctx, "start", held)
    op_stats = transfer_counters()

    def op(i: int) -> bool:
        return repro.tune_matrix(workloads, platforms, seed=seed, options=options) == reference

    ops, window = closed_loop(ctx, op)
    after = held_working_set(repro)
    working_set_line(ctx, "end", after)
    stable = same_size(held, after, ("em_refs", "cached_models"))
    cells = list(reference)
    result = {
        "attempted": len(ops),
        "failed": sum(not o.ok for o in ops),
        "correct": stable and all(c.optimum_distance >= 1.0 for c in cells),
        "notes": ctx.notes,
    }
    if not ctx.trace:
        result["metrics"] = e2e_metrics(
            ctx, setup_s, ops, window,
            (sum(c.total_experiments for c in cells), 1),
            (sum(c.optimum_distance for c in cells) / len(cells), len(cells)),
            "2x2 transfer+portfolio matrix, models in memory",
        )
        return result
    spans = ctx.tracer.spans
    traced_ops = [o for o in ops if o.traced]
    op_spans = spans_during(spans, traced_ops)
    passes = {
        "setup": Pass("setup (cold+warm fits)",
                      layer_totals(spans, in_window(setup_begin, setup_end)), 1),
        "ops": Pass("traced ops", layer_totals(op_spans), len(traced_ops)),
    }
    training = (
        "ml.tree.fit_calls", "ml.tree.fit_s", "ml.boosting.fit_s",
        "ml.boosting.continue_fit_s", "core.training.grid_s", "core.training.grid_rows",
        "core.training.train_s", "core.enumeration.walk_calls", "core.enumeration.walk_s",
    )
    route = {name: "setup" for name in training}
    op_delta = transfer_delta(op_stats)
    extra = {
        "ml.transfer.cold_fits": (setup_delta["cold_fits"], 1, "setup"),
        "ml.transfer.warm_fits": (setup_delta["warm_fits"], 1, "setup"),
        "ml.transfer.memory_hits": (
            op_delta["models_memory_hits"] / len(ops), len(ops), "all ops"
        ),
        **not_exercised("core.pool.retries"),
        "core.engine.cache_hits": (
            sum(c.report.engine_cache_hits for c in cells), len(cells), "reference cells"
        ),
        "core.portfolio.useful_ratio": useful_ratio(cells),
        **not_exercised(*SERVE_METRICS),
        **workset_metrics(after),
    }
    top_self_times(ctx, passes["ops"], median([o.seconds for o in traced_ops]))
    top_self_times(ctx, passes["setup"], setup_end - setup_begin)
    result["metrics"] = trace_layer_metrics(ctx, passes, route, ops, window, extra)
    finish_tracer(ctx, "portfolio-transfer")
    return result


# -- serve-mixed --------------------------------------------------------------


@dataclass
class Request:
    role: str  # "hit" or "eval"
    start: float
    end: float
    ok: bool
    elapsed: float | None = None  # server-reported evaluation seconds

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Server:
    """A ``repro serve`` subprocess on an ephemeral port.

    Untraced runs start ``python -m repro serve`` itself; traced runs
    start ``serve_launcher.py``, which wraps the layers and then calls
    the same CLI entry point.
    """

    def __init__(self, ctx: Context, store: Path, spans: Path | None) -> None:
        serve = ["serve", "--port", "0", "--store", str(store)]
        if spans is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            launcher = Path(__file__).with_name("serve_launcher.py")
            argv = [sys.executable, str(launcher), str(spans), *serve]
        self.proc = subprocess.Popen(
            argv, cwd=ctx.root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
        )
        banner = self.proc.stderr.readline()
        match = re.search(r"serving on [^\s]+:(\d+) ", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(match.group(1))
        # keep the pipe drained; the server's own messages go to ours
        threading.Thread(target=self._forward_stderr, daemon=True).start()

    def _forward_stderr(self) -> None:
        for line in self.proc.stderr:
            sys.stderr.write(line)

    def signal(self, signum) -> None:
        self.proc.send_signal(signum)

    def stop(self, timeout: float = 30.0) -> None:
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def serve_mixed(ctx: Context) -> dict:
    repro = ctx.repro
    from repro.service.client import ServiceClient, cell_results
    from repro.service.protocol import SubmitRequest
    from repro.service.serde import decode_scenario

    rng = random.Random(ctx.seed)
    seeds = ctx.seeds(CYCLE)
    cells = [
        (w, p, s) for s in seeds for w in repro.workload_names() for p in repro.platform_names()
    ]
    tag = f"{ctx.seed}-{os.getpid()}"
    store = ctx.out_dir / f"store-{tag}.jsonl"
    spans_file = ctx.out_dir / f"server-spans-{tag}.json" if ctx.trace else None
    server = Server(ctx, store, spans_file)
    payloads: dict[tuple, str] = {}
    requests: list[Request] = []
    windows: list[tuple[float, float, bool]] = []  # (start, end, traced)
    stats: dict[str, dict] = {}

    def request(cell, iterations=SERVE_ITERATIONS):
        w, p, s = cell
        return SubmitRequest(
            client="bench", workloads=(w,), platforms=(p,), seed=s, iterations=iterations
        )

    async def submit(client, cell, iterations=SERVE_ITERATIONS):
        events = await client.submit(request(cell, iterations))
        done = cell_results(events)
        return done[0] if len(done) == 1 else {"status": "missing", "events": events}

    async def fill(part):
        async with ServiceClient(port=server.port) as client:
            for cell in part:
                event = await submit(client, cell)
                if event.get("status") != "done" or event.get("source") != "evaluate":
                    raise RuntimeError(f"set-up cell {cell} failed: {event}")
                payloads[cell] = json.dumps(event["payload"], sort_keys=True)

    async def reader(client, order, deadline):
        k = 0
        while time.perf_counter() < deadline:
            cell = order[k % len(order)]
            k += 1
            start = time.perf_counter()
            event = await submit(client, cell)
            end = time.perf_counter()
            ok = (
                event.get("status") == "done"
                and event.get("source") == "store"
                and json.dumps(event.get("payload"), sort_keys=True) == payloads[cell]
            )
            requests.append(Request("hit", start, end, ok))

    async def writer(client, deadline):
        k = 0
        while time.perf_counter() < deadline:
            cell = (*WRITER_CELL, seeds[k % CYCLE])
            k += 1
            start = time.perf_counter()
            event = await submit(client, cell, iterations=SERVE_ITERATIONS + k)
            end = time.perf_counter()
            ok = event.get("status") == "done" and event.get("source") == "evaluate"
            requests.append(Request("eval", start, end, ok, event.get("elapsed")))

    async def toggle(begin, deadline):
        # traced runs: on/off/on/off quarters of the measured window
        quarter = (deadline - begin) / 4
        for q in range(4):
            on = q % 2 == 0
            server.signal(signal.SIGUSR1 if on else signal.SIGUSR2)
            windows.append((begin + q * quarter, begin + (q + 1) * quarter, on))
            await asyncio.sleep(max(0.0, begin + (q + 1) * quarter - time.perf_counter()))

    async def main():
        nonlocal setup_end
        await asyncio.gather(fill(cells[0::2]), fill(cells[1::2]))
        setup_end = time.perf_counter()
        async with ServiceClient(port=server.port) as a, ServiceClient(port=server.port) as b:
            stats["start"] = await a.stats()
            order = cells[:]
            rng.shuffle(order)
            begin = time.perf_counter()
            deadline = begin + ctx.seconds
            jobs = [reader(a, order, deadline), writer(b, deadline)]
            if ctx.trace:
                jobs.append(toggle(begin, deadline))
            await asyncio.gather(*jobs)
            stats["window"] = time.perf_counter() - begin
            stats["end"] = await a.stats()
            await a.shutdown()

    setup_end = 0.0
    try:
        asyncio.run(main())
    finally:
        server.stop()
    setup_s = setup_end - ctx.started
    held = {k: stats["start"]["store"][f"{k}_entries"] for k in ("em", "scenario")}
    after = {k: stats["end"]["store"][f"{k}_entries"] for k in ("em", "scenario")}
    for when, h in (("start", held), ("end", after)):
        working_set_line(ctx, when, {"em_refs": h["em"], "stored_cells": h["scenario"]})
    window = stats["window"]
    hits = [r for r in requests if r.role == "hit"]
    evals = [r for r in requests if r.role == "eval"]
    reference = [decode_scenario(json.loads(p)) for p in payloads.values()]
    result = {
        "attempted": len(requests),
        "failed": sum(not r.ok for r in requests),
        "correct": held["em"] == after["em"] == len(cells) and bool(evals),
        "notes": ctx.notes,
    }
    ctx.notes.append(
        "# store counters at end: "
        + ", ".join(f"{k}={v}" for k, v in stats["end"]["store"].items() if k != "path")
    )
    ctx.notes.append(
        f"# roles: {len(hits)} hits, {len(evals)} evaluations in {window:.2f} s; "
        f"stored cells {held['scenario']} -> {after['scenario']} (writer adds one per evaluation)"
    )
    if not ctx.trace:
        e2e = e2e_metrics(
            ctx, setup_s, evals, window,
            (sum(r.total_experiments for r in reference) / len(reference), len(reference)),
            (sum(r.optimum_distance for r in reference) / len(reference), len(reference)),
            "served SAM evaluation beside a store-hit reader",
        )
        result["metrics"] = e2e
        add_role_notes(ctx, hits, evals, window)
        store.unlink()
        return result
    with open(spans_file) as fh:
        dumped = json.load(fh)
    spans_file.unlink()
    server_spans = [tuple(s) for s in dumped["spans"]]
    on = [w for w in windows if w[2]]
    on_requests = [r for r in requests if any(a <= r.start < b for a, b, _ in on)]
    off_requests = [r for r in requests if r not in on_requests]
    on_spans = [s for s in server_spans if any(a <= s[3] < b for a, b, _ in on)]
    on_evals = [r.seconds for r in on_requests if r.role == "eval"]
    off_evals = [r.seconds for r in off_requests if r.role == "eval"]
    passes = {
        "setup": Pass("server setup",
                      layer_totals(server_spans, lambda s: s[3] < setup_end), 1),
        "ops": Pass("server, traced windows, per evaluation",
                    layer_totals(on_spans), len(on_evals)),
    }
    route = {"core.enumeration.walk_calls": "setup", "core.enumeration.walk_s": "setup"}
    start_store, end_store = stats["start"]["store"], stats["end"]["store"]
    start_srv, end_srv = stats["start"]["server"], stats["end"]["server"]
    off_hits = [r.seconds for r in off_requests if r.role == "hit"]
    waits = [r.seconds - r.elapsed for r in evals if r.elapsed is not None]
    metrics = span_metrics(passes, route)
    metrics.update(
        {
            "service.store.duplicates": (
                (end_store["duplicates"] - start_store["duplicates"]) / max(1, len(evals)),
                len(evals), "per evaluation",
            ),
            "service.store.file_bytes": (os.path.getsize(store), 1, "store file at end"),
            "service.server.eval_s_p50": (
                median([r.elapsed for r in evals if r.elapsed is not None]), len(evals),
                "server-reported elapsed",
            ),
            "service.server.wait_s_p50": (median(waits), len(waits), "client minus server"),
            "service.server.rejected": (
                sum(end_srv[k] - start_srv[k] for k in ("rejected_quota", "rejected_saturated")),
                len(requests), "window",
            ),
            "service.server.eval_retries": (
                end_srv["eval_retries"] - start_srv["eval_retries"], len(evals), "window"
            ),
            "serve.hit_s_p50": (median(off_hits), len(off_hits), "untraced windows"),
            "serve.hit_s_p98": (percentile(off_hits, 98), len(off_hits), "untraced windows"),
            "serve.hits_per_s": (len(hits) / window, len(hits), "whole window"),
            "trace.op_s_p50_overhead": (
                median(on_evals) - median(off_evals), len(evals),
                "traced minus untraced evaluation p50",
            ),
            "trace.ops_per_s_overhead": (
                rate(on_evals, on) - rate(off_evals, [w for w in windows if not w[2]]),
                len(evals), "traced minus untraced evaluations/s",
            ),
            **not_exercised("ml.tree.fit_share", "core.pool.retries"),
            "core.engine.cache_hits": (
                sum(r.report.engine_cache_hits for r in reference) / len(reference),
                len(reference), "per stored cell",
            ),
            "core.portfolio.useful_ratio": useful_ratio(reference),
            **not_exercised(*TRANSFER_METRICS),
            **workset_metrics(
                {"em_refs": after["em"], "stored_cells": after["scenario"], "cached_models": 0}
            ),
        }
    )
    result["metrics"] = metrics
    top_self_times(ctx, passes["ops"], median(on_evals))
    client_spans = [
        (i + 1, 0, f"client.{r.role}", r.start, r.end, r.seconds, 1, 0)
        for i, r in enumerate(requests)
    ]
    path = ctx.out_dir / f"trace-serve-mixed-{ctx.seed}.json"
    write_chrome_trace(str(path), [(os.getpid(), client_spans), (dumped["pid"], server_spans)])
    ctx.say(f"# chrome trace: {path}")
    store.unlink()
    return result


def rate(latencies, windows) -> float:
    return len(latencies) / max(1e-9, sum(b - a for a, b, _ in windows))


def add_role_notes(ctx, hits, evals, window) -> None:
    lat = [r.seconds for r in hits]
    ev = [r.seconds for r in evals]
    quartiles = "/".join(f"{percentile(lat, q) * 1e3:.2f}" for q in (10, 25, 50, 75, 90))
    ctx.notes.append(f"# hit p10/p25/p50/p75/p90 {quartiles} ms")
    ctx.notes.append(
        f"# hit p50 {median(lat) * 1e3:.2f} ms p98 {percentile(lat, 98) * 1e3:.2f} ms "
        f"(n={len(lat)}, {len(lat) / window:.1f}/s); eval p50 {median(ev) * 1e3:.1f} ms "
        f"p90 {percentile(ev, 90) * 1e3:.1f} ms (n={len(ev)}, {len(ev) / window:.1f}/s)"
    )


RUNNERS = {
    "sam-matrix": sam_matrix,
    "saml-cold": saml_cold,
    "portfolio-transfer": portfolio_transfer,
    "serve-mixed": serve_mixed,
}
