"""Command-line experiment runner: ``python -m repro <artifact>``.

Artifacts: ``fig2``, ``fig5``, ``fig6``, ``fig7``, ``fig8``, ``table2``,
``table4``, ``table5``, ``table6``, ``table7``, ``table8``, ``table9``,
``fig9``, ``summary``, ``tune``, ``platforms``, ``workloads``,
``ingest``, ``campaign``, ``matrix``, ``portfolio``, ``serve``,
``submit``, ``store``, or ``all``.  Everything prints as plain-text
tables mirroring the paper's figures and tables.

``tune`` runs one optimization method end-to-end and prints the
suggested system configuration; ``--engine``/``--batch-size`` select
the evaluation backend (serial / cached / batched — see
:mod:`repro.core.engine`) for it and for the fig9/table studies.
``--shards``/``--refine`` control multi-device enumeration: sharded
share-simplex walks (optionally pooled via ``--processes``) and
coarse-to-fine share-step refinement (see
:mod:`repro.core.enumeration`).

``--platform`` selects a registered platform (default: the paper's
``emil``) and ``--workload`` a registered workload (default: the
paper's ``dna-paper``) for ``tune`` and the experiment artifacts;
``platforms`` / ``workloads`` list the registries; ``campaign`` runs
one tuning method across every registered platform, and ``matrix``
crosses the workload registry with the platform registry and prints a
per-cell comparison table (see :mod:`repro.core.campaign`).
``--budget-scale small`` shrinks ``matrix`` to a 3x3 subset with a
capped iteration budget — the CI smoke configuration.

``--portfolio [SPEC]`` replaces the single method with a successive-
halving race over the searcher catalogue (``sh:<rung0>x<eta>[:<A+B>]``,
see :mod:`repro.core.portfolio`), and ``--transfer`` warm-starts ML
training from already-tuned neighbor cells (:mod:`repro.ml.transfer`);
both apply to ``tune`` and the ``tune``-like artifacts (``campaign``,
``matrix``, ``ingest --tune``, ``submit``).  The ``portfolio``
artifact races one cell and prints the full rung-by-rung ledger.
Passing ``--store`` to ``tune``/``campaign``/``matrix``/``portfolio``
binds the durable result store for the run, so EM references, measured
training grids, and fitted models persist and are reused across
processes (see ``docs/portfolio.md``).

``ingest`` measures a FASTA file (``--fasta``, default: the bundled
sample) into a positive/shuffled-background workload pair
(:mod:`repro.dna.ingest`), registers both under ``fasta:<name>`` keys,
and prints the measured statistics; ``--tune`` additionally tunes both
cells on ``--platform`` — the DREME-style discriminative motif-scan
scenario end-to-end.

``serve`` runs the long-lived campaign server of
:mod:`repro.service` on ``--bind``/``--port`` with a durable
``--store`` (admission knobs: ``--max-pending``, ``--quota``;
reliability knobs: ``--eval-deadline`` per-attempt evaluation deadline,
``--fsync`` store durability policy), and ``submit`` sends one batch
of cells to a running server (``--host``/``--port``, quota bucket
``--client``), streaming per-cell progress; ``--json`` emits the raw
protocol events instead — see ``docs/result-store.md`` for the
operating guide.  ``store compact`` rewrites the ``--store`` file
dropping quarantined/corrupt lines, foreign-schema records, and
duplicate keys via an atomic rename, and reports the reclaimed bytes
(see ``docs/reliability.md``).
"""

from __future__ import annotations

import argparse
import sys
import time

from .core.methods import METHOD_PROPERTIES
from .dna.sequence import GENOME_ORDER
from .dna.workloads import DEFAULT_WORKLOAD_KEY, get_workload
from .experiments import (
    CHECKPOINTS,
    check_n_seeds,
    experiments_saved_fraction,
    fig5_curves,
    fig6_curves,
    fig7_histogram,
    fig8_histogram,
    platform_context,
    render_histogram,
    render_series,
    render_table,
    run_fig2,
    run_iteration_study,
    table4,
    table5,
)
from .machines.registry import get_platform

ARTIFACTS = (
    "fig2", "fig5", "fig6", "fig7", "fig8", "fig9",
    "table1", "table2", "table3",
    "table4", "table5", "table6", "table7", "table8", "table9",
    "summary", "tune", "platforms", "workloads", "ingest", "campaign",
    "matrix", "portfolio", "serve", "submit", "store", "all",
)

#: The ``--budget-scale small`` matrix subset: three workloads spanning
#: the input-scale regimes x three platforms spanning the fleet, with a
#: capped annealing budget — small enough for a CI smoke job.
SMALL_MATRIX_WORKLOADS = ("dna-paper", "short-read", "dense-motif")
SMALL_MATRIX_PLATFORMS = ("emil", "fathost", "slowlink")
SMALL_MATRIX_MAX_ITERATIONS = 150


def _print_table1() -> None:
    from .core.params import DEVICE_THREADS, TABLE1_HOST_THREADS
    from .machines.affinity import DEVICE_AFFINITIES, HOST_AFFINITIES

    def braced(values) -> str:
        return "{" + ", ".join(str(v) for v in values) + "}"

    rows = [
        ("Threads", braced(TABLE1_HOST_THREADS), braced(DEVICE_THREADS)),
        ("Affinity", braced(HOST_AFFINITIES), braced(DEVICE_AFFINITIES)),
        ("Workload Fraction", "{1..100}", "{100 - Host Workload Fraction}"),
    ]
    print(render_table(
        ["Parameter", "Host", "Device"],
        rows,
        title="Table I: considered parameters and values",
    ))
    print()


def _print_table3(platform) -> None:
    cpu, phi = platform.cpu, platform.device
    device_installed = platform.has_device
    rows = [
        ("Type", cpu.name.replace("Intel Xeon ", ""),
         phi.name.replace("Intel Xeon Phi ", "") if device_installed else "none"),
        ("Core frequency [GHz]", f"{cpu.base_freq_ghz} - {cpu.turbo_freq_ghz}",
         f"{phi.base_freq_ghz} - {phi.turbo_freq_ghz}" if device_installed else "-"),
        ("# of Cores", cpu.cores, phi.cores if device_installed else "-"),
        ("# of Threads", cpu.hardware_threads,
         phi.hardware_threads if device_installed else "-"),
        ("Cache [MB]", cpu.l3_mb, phi.l2_mb if device_installed else "-"),
        ("Max Mem. Bandwidth [GB/s]", cpu.mem_bandwidth_gbs,
         phi.mem_bandwidth_gbs if device_installed else "-"),
    ]
    print(render_table(
        ["Specification", "Intel Xeon", "Intel Xeon Phi"],
        rows,
        title=f"Table III: {platform.name} hardware architecture",
        float_format="{:g}",
    ))
    print()


def _accelerator_summary(spec) -> str:
    """``2x Phi 7290`` for homogeneous nodes, the card list for mixed ones."""
    if not spec.has_device:
        return "none"
    cards = spec.device_specs
    if len(set(cards)) == 1:
        return f"{len(cards)}x{cards[0].name}"
    return " + ".join(card.name for card in cards)


def _print_platforms() -> None:
    from .machines.registry import all_platforms

    rows = []
    for spec in all_platforms():
        rows.append((
            spec.name,
            f"{spec.sockets}x{spec.cpu.cores}c ({spec.host_hardware_threads} ht)",
            _accelerator_summary(spec),
            spec.interconnect.name if spec.has_device else "-",
            spec.description or "-",
        ))
    print(render_table(
        ["Platform", "Host", "Accelerators", "Interconnect", "Notes"],
        rows,
        title="Registered platforms (select with --platform)",
    ))
    print()


def _print_workloads() -> None:
    from .core.params import workload_fractions
    from .dna.workloads import all_workloads

    rows = []
    for spec in all_workloads():
        n_fracs = len(workload_fractions(spec))
        grid = {21: "coarse", 41: "paper", 81: "fine"}.get(n_fracs, str(n_fracs))
        rows.append((
            spec.name,
            f"{spec.sequence_mb:g}",
            spec.alphabet_size,
            f"{spec.n_patterns} ({min(spec.pattern_lengths)}-{max(spec.pattern_lengths)})",
            f"{spec.match_density:.2g}",
            spec.automaton_states,
            f"{spec.table_kb:.2f}",
            grid,
            spec.description or "-",
        ))
    print(render_table(
        ["Workload", "Input [MB]", "Alphabet", "Patterns (len)", "Matches/char",
         "States", "Table [KB]", "Fractions", "Notes"],
        rows,
        title="Registered workloads (select with --workload)",
    ))
    print()


def _print_fig2(ctx) -> None:
    for name, res in run_fig2(ctx.sim).items():
        print(
            render_series(
                list(res.labels),
                {"normalized exec time (1-10)": list(res.normalized)},
                x_label="work distribution",
                title=f"{name}: size={res.scenario.size_mb:g} MB, "
                f"CPU threads={res.scenario.cpu_threads} "
                f"(best: {res.best_label})",
                float_format="{:.2f}",
            )
        )
        print()


def _print_prediction_curves(curves, title: str) -> None:
    # Sample every 8th size so the table stays readable.
    for c in curves:
        idx = range(0, len(c.sizes_mb), 8)
        print(
            render_series(
                [round(c.sizes_mb[i], 0) for i in idx],
                {
                    "measured [s]": [c.measured[i] for i in idx],
                    "predicted [s]": [c.predicted[i] for i in idx],
                },
                x_label="file size [MB]",
                title=f"{title} — {c.threads} threads, affinity={c.affinity}",
            )
        )
        print()


def _print_table2() -> None:
    rows = [
        (m, p["space_exploration"], p["evaluation"], p["effort"], p["accuracy"], p["prediction"])
        for m, p in METHOD_PROPERTIES.items()
    ]
    print(
        render_table(
            ["Method", "Space Exploration", "Sys. Conf. Evaluation",
             "Effort", "Accuracy", "Prediction"],
            rows,
            title="Table II: properties of optimization methods",
        )
    )
    print()


def _print_accuracy_table(t, title: str) -> None:
    headers = ["Threads", *[str(x) for x in t.threads], "avg"]
    print(render_table(headers, t.rows(), title=title))
    print()


def _run_tune(platform, workload, args) -> int:
    """One end-to-end tuning run: method + engine -> suggested config."""
    from .core.campaign import tune_platform

    size_mb = args.size_mb if args.size_mb is not None else workload.sequence_mb
    restore_store = _bind_store(args)
    try:
        report = tune_platform(
            platform,
            method=args.method or "SAML",
            size_mb=size_mb,
            iterations=args.iterations,
            seed=args.seed,
            workload=workload,
            options=_cli_options(args, engine_default=None),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        restore_store()
    print(
        f"{report.method} suggestion for a {size_mb:g} MB {workload.name} "
        f"workload on {platform.name}:"
    )
    print(f"  configuration      : {report.config.describe()}")
    print(f"  measured time      : {report.measured_time:.3f} s")
    print(f"  search evaluations : {report.search_evaluations}")
    print(f"  timed experiments  : {report.experiments}")
    if args.engine is not None:
        print(
            f"  engine             : {args.engine} "
            f"(batches={report.engine_batches}, cache hits={report.engine_cache_hits})"
        )
    return 0


def _split_csv(value: str | None) -> tuple[str, ...] | None:
    """Parse a comma-separated CLI list into a tuple (None stays None)."""
    if not value:
        return None
    return tuple(v.strip() for v in value.split(",") if v.strip())


def _cli_options(args, *, engine_default: str | None = "cached+batched"):
    """One :class:`~repro.core.options.TuningOptions` from the CLI flags.

    The single place the CLI's execution flags map onto the unified
    options object; ``engine_default`` preserves the historical per-
    artifact default (campaign/matrix always batched, ``tune`` direct).
    """
    from .core.options import TuningOptions

    return TuningOptions(
        engine=args.engine if args.engine is not None else engine_default,
        batch_size=args.batch_size,
        shards=args.shards,
        refine=args.refine,
        processes=args.processes,
        transfer=args.transfer,
        portfolio=args.portfolio_spec,
    )


def _bind_store(args):
    """Bind the durable result store when ``--store`` was passed.

    Tune/campaign/matrix/portfolio runs read EM references, training grids,
    and fitted models through the bound store and persist fresh ones —
    the cross-process reuse tier of :mod:`repro.ml.transfer`.  Returns
    a restore callable (no-op without ``--store``).
    """
    if args.store is None:
        return lambda: None
    from .core.campaign import set_result_store
    from .service import ResultStore

    previous = set_result_store(ResultStore(args.store, fsync=args.fsync))
    return lambda: set_result_store(previous)


def _print_transfer_summary() -> None:
    """One line of this process's transfer-training counters."""
    from .ml.transfer import transfer_stats

    stats = transfer_stats()
    print(
        f"transfer: {stats.cold_fits} cold fits, {stats.warm_fits} warm fits, "
        f"{stats.models_memory_hits} cached models, "
        f"{stats.models_store_hits} model store hits, "
        f"{stats.grids_measured} grids measured, "
        f"{stats.grid_store_hits} grid store hits"
    )


def _run_ingest(args, platform) -> int:
    """Measure a FASTA into a registered workload pair; optionally tune it."""
    from .core.campaign import tune_scenario
    from .dna.ingest import (
        BUNDLED_FASTA,
        DEFAULT_SCAN_PATTERNS,
        ingest_fasta,
        register_ingest,
    )

    path = args.fasta if args.fasta is not None else BUNDLED_FASTA
    patterns = _split_csv(args.patterns) or DEFAULT_SCAN_PATTERNS
    try:
        report = ingest_fasta(
            path,
            name=args.name,
            patterns=patterns,
            sequence_mb=args.size_mb,
            shuffle_seed=args.shuffle_seed,
        )
        positive_key, background_key = register_ingest(report)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    stats = report.stats
    comp = stats.composition
    print(f"ingested {path}:")
    print(f"  records            : {stats.n_records} "
          f"({', '.join(report.headers)})")
    print(f"  bases              : {stats.n_bases} ({stats.megabytes:g} MB)")
    print(f"  GC content         : {stats.gc_content:.3f} "
          f"(A={comp[0]:.3f} C={comp[1]:.3f} G={comp[2]:.3f} T={comp[3]:.3f})")
    print(f"  unknown symbols    : {stats.unknown_rate:.4f}")
    histogram = ", ".join(f"{n}x{length}" for length, n in report.length_histogram)
    print(f"  patterns           : {len(report.patterns)} (lengths {histogram})")
    print(f"  effective alphabet : {report.alphabet_size}")
    print(f"  automaton states   : {report.automaton_states}")
    print(f"  match density      : {report.match_density:.6f} /char")
    print(f"  background density : {report.background_density:.6f} /char "
          f"(dinucleotide shuffle, seed {report.shuffle_seed})")
    print(f"  motif enrichment   : {report.enrichment():.2f}x")
    print()
    rows = [
        (spec.name, f"{spec.sequence_mb:g}", spec.alphabet_size,
         f"{spec.match_density:.2g}", spec.automaton_states,
         f"{spec.state_sharing:.3f}", spec.transfer_overlap)
        for spec in (report.workload, report.background)
    ]
    print(render_table(
        ["Registered workload", "Input [MB]", "Alphabet", "Matches/char",
         "States", "Sharing", "Overlap"],
        rows,
        title="Derived workload pair (first-class matrix cells)",
    ))
    print()
    if not args.tune:
        return 0
    options = _cli_options(args).for_cell()
    method = (args.method or "SAM").upper()
    tuned_rows = []
    try:
        for key in (positive_key, background_key):
            cell = tune_scenario(
                key,
                platform,
                method=method,
                iterations=args.iterations,
                seed=args.seed,
                options=options,
            )
            tuned_rows.append((
                cell.workload,
                cell.platform,
                cell.config.describe(),
                round(cell.report.measured_time, 4),
                f"{cell.optimum_distance:.3f}x",
                f"{cell.speedup_vs_host_only:.2f}x",
                cell.report.experiments,
            ))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_table(
        ["Workload", "Platform", "Best configuration", "Time [s]",
         "vs EM", "vs host", "Experiments"],
        tuned_rows,
        title=f"Discriminative scan cells tuned with {method}",
    ))
    print()
    return 0


def _run_campaign(workload, args) -> int:
    """One method across the registered fleet -> comparison table.

    A fleet run is the one-workload matrix ``tune_matrix([workload], ...)``.
    """
    from .core.campaign import tune_matrix

    method = (args.method or "SAM").upper()
    platforms = _split_csv(args.platforms)
    if platforms is None and args.platform is not None:
        # `campaign --platform X` means a single-platform campaign, not
        # "silently tune the whole fleet anyway".
        platforms = (args.platform,)
    size_mb = args.size_mb if args.size_mb is not None else workload.sequence_mb
    restore_store = _bind_store(args)
    try:
        result = tune_matrix(
            [workload],
            platforms,
            method=method,
            size_mb=size_mb,
            iterations=args.iterations,
            seed=args.seed,
            options=_cli_options(args),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        restore_store()
    reports = [cell.report for cell in result]
    rows = [
        (
            r.platform,
            r.config.describe(),
            round(r.measured_time, 3),
            round(r.em_time, 3),
            f"{r.quality_vs_em:.3f}x",
            f"{r.speedup_vs_host_only:.2f}x",
            "-" if r.speedup_vs_device_only is None else f"{r.speedup_vs_device_only:.2f}x",
            r.experiments,
            round(100.0 * r.budget_fraction, 2),
        )
        for r in reports
    ]
    print(render_table(
        ["Platform", "Best configuration", "Time [s]", "EM [s]", "vs EM",
         "vs host", "vs device", "Experiments", "Budget [%]"],
        rows,
        title=(
            f"Campaign: {method} on a {size_mb:g} MB {workload.name} workload "
            f"across {len(reports)} platforms"
        ),
    ))
    best = min(reports, key=lambda r: r.measured_time)
    print()
    print(f"fastest platform   : {best.platform} ({best.measured_time:.3f} s)")
    print(f"closest to optimum : {min(reports, key=lambda r: r.quality_vs_em).platform}")
    return 0


def _run_matrix(args) -> int:
    """One method over workload x platform scenarios -> per-cell table."""
    from .core.campaign import tune_matrix

    method = (args.method or "SAM").upper()
    workloads = _split_csv(args.workloads)
    platforms = _split_csv(args.platforms)
    iterations = args.iterations
    if args.budget_scale == "small":
        workloads = workloads or SMALL_MATRIX_WORKLOADS
        platforms = platforms or SMALL_MATRIX_PLATFORMS
        iterations = min(iterations, SMALL_MATRIX_MAX_ITERATIONS)
    restore_store = _bind_store(args)
    try:
        result = tune_matrix(
            workloads,
            platforms,
            method=method,
            size_mb=args.size_mb,
            iterations=iterations,
            seed=args.seed,
            options=_cli_options(args),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        restore_store()
    print(render_table(
        result.table_headers(),
        result.table_rows(),
        title=(
            f"Scenario matrix: {method} across {len(result.workloads)} workloads "
            f"x {len(result.platforms)} platforms"
        ),
    ))
    best = result.best_cell()
    print()
    print(
        f"best cell          : {best.workload} on {best.platform} "
        f"({best.speedup_vs_host_only:.2f}x vs host-only)"
    )
    for workload in result.workloads:
        fastest = result.best_platform_for(workload)
        print(f"fastest for {workload:<16}: {fastest.platform} "
              f"({fastest.report.measured_time:.3f} s)")
    if args.portfolio_spec is not None:
        print()
        for cell in result:
            if cell.portfolio is not None:
                print(f"portfolio {cell.workload}@{cell.platform}: "
                      f"{cell.portfolio.describe()}")
    if args.transfer or args.portfolio_spec is not None:
        _print_transfer_summary()
    return 0


def _run_portfolio(args, workload, platform) -> int:
    """Race the searcher portfolio on one cell -> rung-by-rung ledger."""
    from dataclasses import replace

    from .core.campaign import tune_scenario
    from .core.portfolio import DEFAULT_PORTFOLIO

    options = _cli_options(args).for_cell()
    if options.portfolio is None:
        options = replace(options, portfolio=DEFAULT_PORTFOLIO)
    restore_store = _bind_store(args)
    try:
        cell = tune_scenario(
            workload,
            platform,
            method=(args.method or "SAM").upper(),
            size_mb=args.size_mb,
            iterations=args.iterations,
            seed=args.seed,
            options=options,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        restore_store()
    race = cell.portfolio
    rows = [
        (e.rung, e.method, e.budget, round(e.value, 4),
         "eliminated" if e.eliminated else "advances")
        for e in race.entries
    ]
    print(render_table(
        ["Rung", "Entrant", "Budget", "Best time [s]", "Outcome"],
        rows,
        title=(
            f"Portfolio race {race.spec.key()} — {cell.workload} "
            f"({cell.size_mb:g} MB) on {cell.platform}"
        ),
    ))
    print()
    print(f"outcome            : {race.describe()}")
    print(f"configuration      : {cell.config.describe()}")
    print(f"measured time      : {cell.report.measured_time:.3f} s "
          f"({cell.optimum_distance:.3f}x the EM optimum)")
    spend = ", ".join(f"{m}={n}" for m, n in sorted(race.spend.items()))
    print(f"spend per entrant  : {spend}")
    print(f"search evaluations : {race.search_evaluations}")
    print(f"timed experiments  : {race.experiments} search "
          f"+ {cell.report.training_experiments} training "
          f"= {cell.total_experiments}")
    _print_transfer_summary()
    return 0


def _run_store(args) -> int:
    """Maintain the durable result store (``store compact``)."""
    from .service import ResultStore

    if args.subcommand != "compact":
        have = "compact"
        print(
            f"error: `store` needs a subcommand ({have}); "
            f"got {args.subcommand!r}",
            file=sys.stderr,
        )
        return 2
    try:
        store = ResultStore(args.store or "results.jsonl", fsync=args.fsync)
        report = store.compact()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"compacted {report.path}: {report.describe()}")
    return 0


def _run_serve(args) -> int:
    """Run the campaign service until Ctrl-C or a client shutdown op."""
    import asyncio

    from .service import CampaignServer, ResultStore

    store = ResultStore(args.store or "results.jsonl", fsync=args.fsync)
    server = CampaignServer(
        store,
        host=args.bind,
        port=args.port,
        max_pending=args.max_pending,
        quota=args.quota,
        processes=args.processes or 0,
        eval_deadline_s=args.eval_deadline,
    )

    async def run() -> None:
        await server.start()
        quota = "unlimited" if args.quota is None else str(args.quota)
        print(
            f"serving on {server.host}:{server.port} — store {store.path} "
            f"({store.count('scenario')} cells, {store.count('em')} EM refs), "
            f"max-pending={args.max_pending}, quota={quota}",
            file=sys.stderr,
        )
        try:
            await server.serve_until_stopped()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    return 0


def _run_submit(args, workload, platform) -> int:
    """Send one batch of cells to a running server; stream progress."""
    import json as json_mod

    from .service import SubmitRequest
    from .service.client import cell_results
    from .service.client import submit as service_submit
    from .service.serde import decode_scenario

    options = _cli_options(args)
    request = SubmitRequest(
        client=args.client,
        workloads=_split_csv(args.workloads) or (workload.name,),
        platforms=_split_csv(args.platforms) or (platform.name,),
        method=(args.method or "SAM").upper(),
        size_mb=args.size_mb,
        iterations=args.iterations,
        seed=args.seed,
        engine=options.engine,
        batch_size=options.batch_size,
        shards=options.shards,
        refine=options.refine,
        transfer=options.transfer,
        portfolio=args.portfolio,
    )

    def progress(event: dict) -> None:
        if args.json or event.get("event") != "cell" or event.get("status") != "start":
            return
        print(
            f"  {event['workload']}@{event['platform']}: {event['source']}...",
            file=sys.stderr,
        )

    from .service.client import ServiceConnectionError

    try:
        events = service_submit(
            request, host=args.host, port=args.port, on_event=progress
        )
    except ServiceConnectionError as exc:
        # Connect retries already ran; the message names host, port,
        # and attempts.
        print(
            f"error: {exc}; start one with `python -m repro serve`",
            file=sys.stderr,
        )
        return 2
    except (ConnectionError, OSError) as exc:
        print(
            f"error: no server at {args.host}:{args.port} ({exc}); "
            f"start one with `python -m repro serve`",
            file=sys.stderr,
        )
        return 2

    if args.json:
        for event in events:
            print(json_mod.dumps(event))

    final = events[-1]
    if final.get("event") == "rejected":
        if not args.json:
            print(f"error: request rejected: {final.get('detail')}", file=sys.stderr)
        return 2
    code = 0
    for event in cell_results(events):
        label = f"{event['workload']}@{event['platform']}"
        if event["status"] == "done":
            report = decode_scenario(event["payload"]).report
            if not args.json:
                print(
                    f"{label:<28} [{event['source']:<9}] "
                    f"{report.measured_time:.3f} s  {report.config.describe()}"
                )
        elif event["status"] == "rejected":
            code = 3
            if not args.json:
                retry = event.get("retry_after")
                hint = "" if retry is None else f" (retry in {retry:g} s)"
                print(f"{label:<28} rejected: {event['reason']}{hint}")
        else:
            code = 1
            if not args.json:
                print(f"{label:<28} error: {event.get('error')}")
    if not args.json:
        tallies = {k: v for k, v in final.items() if k not in ("event", "request_id")}
        print(
            "done: "
            + ", ".join(f"{key}={value}" for key, value in sorted(tallies.items()))
        )
    return code


def _run_studies(want, args, platform, workload, engine) -> int:
    """The paper's figures and tables (``all`` prints every one)."""
    needs_ctx = want not in ("table1", "table2", "table3")
    needs_study = want in ("fig9", "table6", "table7", "table8", "table9", "summary", "all")
    ctx = None
    if needs_ctx:
        try:
            if needs_study:
                check_n_seeds(args.seeds)
            ctx = platform_context(
                args.platform or "emil",
                args.seed,
                workload.name.lower(),
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if want in ("table1", "all"):
        _print_table1()
    if want in ("table2", "all"):
        _print_table2()
    if want in ("table3", "all"):
        _print_table3(platform)
    if want in ("fig2", "all"):
        _print_fig2(ctx)
    if want in ("fig5", "all"):
        _print_prediction_curves(fig5_curves(ctx), "Fig. 5: host prediction accuracy")
    if want in ("fig6", "all"):
        _print_prediction_curves(fig6_curves(ctx), "Fig. 6: device prediction accuracy")
    if want in ("fig7", "all"):
        h = fig7_histogram(ctx)
        print(render_histogram([r[0] for r in h.rows()], [r[1] for r in h.rows()],
                               title="Fig. 7: host error histogram"))
        print()
    if want in ("fig8", "all"):
        h = fig8_histogram(ctx)
        print(render_histogram([r[0] for r in h.rows()], [r[1] for r in h.rows()],
                               title="Fig. 8: device error histogram"))
        print()
    if want in ("table4", "all"):
        _print_accuracy_table(table4(ctx), "Table IV: host prediction accuracy")
    if want in ("table5", "all"):
        _print_accuracy_table(table5(ctx), "Table V: device prediction accuracy")
    if needs_study:
        study = run_iteration_study(ctx, n_seeds=args.seeds, engine=engine)
        hdr = ["DNA", *[str(c) for c in CHECKPOINTS]]
        if want in ("fig9", "all"):
            from .experiments import line_plot

            for genome in GENOME_ORDER:
                series = study.fig9_series(genome)
                print(
                    render_series(
                        list(CHECKPOINTS),
                        series,
                        x_label="iterations",
                        title=f"Fig. 9: best measured time [s] — {genome}",
                    )
                )
                print()
                print(line_plot(
                    list(CHECKPOINTS),
                    series,
                    title=f"Fig. 9 ({genome})",
                    y_label="seconds",
                    x_label="iterations",
                ))
                print()
        if want in ("table6", "all"):
            print(render_table(hdr, study.table6(), title="Table VI: percent difference [%]"))
            print()
        if want in ("table7", "all"):
            print(render_table(hdr, study.table7(), title="Table VII: absolute difference [s]"))
            print()
        if want in ("table8", "all"):
            print(render_table([*hdr, "EM"], study.table8(),
                               title="Table VIII: speedup vs host-only (48 threads)"))
            print()
        if want in ("table9", "all"):
            print(render_table([*hdr, "EM"], study.table9(),
                               title="Table IX: speedup vs device-only (240 threads)"))
            print()
        if want in ("summary", "all"):
            g = study.genomes["mouse"]
            budget = 1000
            print("Headline results (mouse genome, 1000 SA iterations):")
            print(f"  experiments explored by SAML : {budget} "
                  f"({100.0 * experiments_saved_fraction(ctx, budget):.1f}% of the "
                  f"{ctx.space.size()} EM experiments)")
            print(f"  speedup vs host-only        : {g.speedup_vs_host(budget):.2f}x "
                  f"(paper: 1.74x)")
            print(f"  speedup vs device-only      : {g.speedup_vs_device(budget):.2f}x "
                  f"(paper: 2.18x... up to 2.18x at 1000 iterations)")
            print()
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's figures and tables.",
    )
    parser.add_argument("artifact", choices=ARTIFACTS, help="what to regenerate")
    parser.add_argument(
        "subcommand", nargs="?", default=None,
        help="`store`: maintenance action (compact)",
    )
    parser.add_argument("--seed", type=int, default=0, help="substrate noise seed")
    parser.add_argument(
        "--seeds", type=int, default=5, help="annealing repetitions for fig9/tables 6-9"
    )
    parser.add_argument(
        "--engine",
        default=None,
        help="evaluation backend: serial, cached, batched, or cached+batched "
        "(default: call evaluators directly)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=64,
        help="configurations per batch for the batched engine",
    )
    parser.add_argument(
        "--method", default=None,
        help="optimization method for `tune`/`campaign` (Table II; "
        "default: SAML for tune, SAM for campaign)",
    )
    parser.add_argument(
        "--size-mb", type=float, default=None,
        help="workload size for `tune`/`campaign`/`matrix` [MB] "
        "(default: the selected workload's input scale, 3170 for dna-paper)",
    )
    parser.add_argument(
        "--iterations", type=int, default=1000,
        help="annealing iterations for `tune`/`campaign`/`matrix` with SAM/SAML",
    )
    parser.add_argument(
        "--platform", default=None,
        help="registered platform for `tune`, `campaign`, and the experiment "
        "artifacts (default: emil; see the `platforms` artifact)",
    )
    parser.add_argument(
        "--platforms", default=None,
        help="comma-separated platform subset for `campaign`/`matrix` "
        "(default: all registered)",
    )
    parser.add_argument(
        "--workload", default=None,
        help="registered workload for `tune`, `campaign`, and the experiment "
        "artifacts (default: dna-paper; see the `workloads` artifact)",
    )
    parser.add_argument(
        "--workloads", default=None,
        help="comma-separated workload subset for `matrix` (default: all registered)",
    )
    parser.add_argument(
        "--budget-scale", choices=("small", "full"), default="full",
        help="`matrix` budget: `small` caps iterations and defaults to a "
        "3x3 workload/platform subset (the CI smoke configuration)",
    )
    parser.add_argument(
        "--processes", type=int, default=None,
        help="fan `campaign`/`matrix` cells (or `tune` enumeration shards) "
        "out over this many worker processes",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="split multi-device enumeration (EM/EML) into this many "
        "share-simplex shards (bit-identical results for any count)",
    )
    parser.add_argument(
        "--refine", type=float, default=None,
        help="coarse-to-fine target share step [%%] for multi-device "
        "enumeration, e.g. 2.5: enumerate at the coarse grid, then "
        "refine around the incumbent down to this step",
    )
    parser.add_argument(
        "--transfer", action="store_true",
        help="warm-start ML training from already-tuned neighbor cells "
        "(transfer learning; applies to ML methods and portfolio races "
        "with an ML entrant — see docs/portfolio.md)",
    )
    parser.add_argument(
        "--portfolio", nargs="?", const="sh", default=None,
        help="race a successive-halving searcher portfolio instead of a "
        "single method: `sh:<rung0>x<eta>[:<A+B+...>]`, e.g. "
        "`sh:125x2:SAM+RS+GA` (bare `--portfolio` races the full "
        "catalogue at 125x2); applies to tune/campaign/matrix/submit "
        "and the `portfolio` artifact",
    )
    parser.add_argument(
        "--fasta", default=None,
        help="`ingest`: FASTA file to measure (default: the bundled "
        "sample promoter set)",
    )
    parser.add_argument(
        "--name", default=None,
        help="`ingest`: registry name for the derived pair — keys become "
        "fasta:<name> and fasta:<name>:shuffled (default: the file stem)",
    )
    parser.add_argument(
        "--patterns", default=None,
        help="`ingest`: comma-separated IUPAC scan patterns "
        "(default: the built-in exact motifs plus degenerate consensi)",
    )
    parser.add_argument(
        "--shuffle-seed", type=int, default=0,
        help="`ingest`: seed of the dinucleotide-shuffled background",
    )
    parser.add_argument(
        "--tune", action="store_true",
        help="`ingest`: also tune the ingested positive/background pair "
        "on --platform (end-to-end discriminative scan scenario)",
    )
    parser.add_argument(
        "--bind", default="127.0.0.1",
        help="`serve`: interface to bind the campaign server on",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="`submit`: host of a running campaign server",
    )
    parser.add_argument(
        "--port", type=int, default=7911,
        help="service port (`serve` binds it — 0 picks an ephemeral port; "
        "`submit` connects to it)",
    )
    parser.add_argument(
        "--store", default=None,
        help="path of the durable JSON-lines result store (`serve`/`store` "
        "default: results.jsonl); passing it to `tune`/`campaign`/`matrix`/"
        "`portfolio` persists EM references and transfer-training "
        "artifacts across runs",
    )
    parser.add_argument(
        "--max-pending", type=int, default=8,
        help="`serve`: evaluation queue bound; cells beyond it are "
        "rejected with a retry-after estimate",
    )
    parser.add_argument(
        "--quota", type=int, default=None,
        help="`serve`: per-client evaluation budget "
        "(default: unlimited; store hits and coalesced cells are free)",
    )
    parser.add_argument(
        "--eval-deadline", type=float, default=None,
        help="`serve`: per-attempt evaluation deadline [s]; timed-out "
        "attempts are retried with backoff before the cell errors "
        "(default: no deadline)",
    )
    parser.add_argument(
        "--fsync", choices=("never", "always"), default="never",
        help="`serve`/`store`: result-store durability policy — `always` "
        "fsyncs every append (power-loss safe, slower)",
    )
    parser.add_argument(
        "--client", default="anonymous",
        help="`submit`: client name — the quota bucket evaluations are charged to",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="`submit`: print the raw protocol events as JSON lines",
    )
    args = parser.parse_args(argv)

    args.portfolio_spec = None
    if args.portfolio is not None:
        from .core.portfolio import PortfolioSpec

        try:
            args.portfolio_spec = PortfolioSpec.parse(args.portfolio)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    try:
        # Rejects a bad ``--engine``/``--batch-size`` before any work;
        # ``tune`` and the fig9/table studies evaluate directly unless
        # ``--engine`` names a backend.
        engine = _cli_options(args, engine_default=None).engine_instance()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    t0 = time.time()
    want = args.artifact

    try:
        platform = get_platform(args.platform or "emil")
        workload = get_workload(args.workload or DEFAULT_WORKLOAD_KEY)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if want == "serve":
        return _run_serve(args)
    runners = {
        "platforms": _print_platforms,
        "workloads": _print_workloads,
        "ingest": lambda: _run_ingest(args, platform),
        "campaign": lambda: _run_campaign(workload, args),
        "matrix": lambda: _run_matrix(args),
        "portfolio": lambda: _run_portfolio(args, workload, platform),
        "store": lambda: _run_store(args),
        "submit": lambda: _run_submit(args, workload, platform),
        "tune": lambda: _run_tune(platform, workload, args),
    }
    run = runners.get(want, lambda: _run_studies(want, args, platform, workload, engine))
    code = run() or 0
    print(f"[done in {time.time() - t0:.1f}s]", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
