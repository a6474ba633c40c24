"""Cross-platform campaign cost: tuning the whole fleet vs one platform.

The campaign subsystem's pitch is that answering the paper's tuning
question for a *fleet* of platforms costs a small multiple of answering
it for Emil alone — each platform's enumeration reference uses the
separable fast path and the method itself runs on the batched engine.

Fan-out jobs carry only their own cell's EM references, so a matrix's
pickled jobs stay cell-sized however many references the parent holds;
``test_matrix_job_bytes`` pins that as a byte ratio.
"""

import pickle

from conftest import run_once

from repro.core import campaign, tune_matrix
from repro.dna.workloads import workload_names
from repro.experiments import render_table
from repro.machines import platform_names
from repro.reliability import RetryStats

SIZE_MB = 1000.0
ITERATIONS = 300
#: Seeds whose references the parent holds while the jobs are built.
HELD_SEEDS = 4
#: Acceptance floor on whole-cache over cell-scoped job bytes; the full
#: 42-cell matrix with 4 seeds held typically lands near 38.
MIN_JOB_BYTES_REDUCTION = 20.0


def test_campaign_fleet(benchmark):
    def fleet():
        # A fleet run is a one-workload matrix.
        return tune_matrix(
            ["dna-paper"], method="SAM", size_mb=SIZE_MB, iterations=ITERATIONS
        )

    result = run_once(benchmark, fleet)
    assert len(result) == len(platform_names())
    # Every platform's search stays a small fraction of its enumeration
    # budget (the deviceless host-only space is tiny, so exempt).
    for report in (cell.report for cell in result):
        if report.space_size > 1000:
            assert report.budget_fraction < 0.05
    print()
    print(render_table(
        result.table_headers(),
        result.table_rows(),
        title=f"SAM campaign, {SIZE_MB:g} MB, {ITERATIONS} iterations",
    ))


def test_matrix_job_bytes(benchmark, monkeypatch):
    campaign.clear_em_cache()
    for seed in range(HELD_SEEDS):
        tune_matrix(method="SAM", iterations=50, seed=seed)
    cells = len(workload_names()) * len(platform_names())
    assert len(campaign._EM_CACHE) == cells * HELD_SEEDS

    jobs = []

    def capture(worker, batch, **options):
        jobs.extend(batch)
        return [], RetryStats()

    monkeypatch.setattr(campaign, "run_tasks", capture)
    run_once(benchmark, lambda: tune_matrix(method="SAM", iterations=50, seed=0))
    assert len(jobs) == cells

    # What each job would weigh carrying the whole held cache instead.
    whole = dict(campaign._EM_CACHE)
    scoped_bytes = sum(len(pickle.dumps(job)) for job in jobs)
    whole_bytes = sum(len(pickle.dumps((*job[:3], whole))) for job in jobs)
    reduction = whole_bytes / scoped_bytes
    campaign.clear_em_cache()
    assert [len(job[3]) for job in jobs] == [HELD_SEEDS] * cells
    assert reduction >= MIN_JOB_BYTES_REDUCTION, (
        f"cell-scoped jobs weigh {scoped_bytes} B vs {whole_bytes} B whole-cache: "
        f"reduction {reduction:.1f} below the {MIN_JOB_BYTES_REDUCTION:g} floor"
    )
    # Deterministic byte-count ratio, gated against baseline.json.
    benchmark.extra_info["em_job_bytes_reduction"] = reduction
    print()
    print(
        f"{cells} matrix jobs, {len(whole)} references held: "
        f"{scoped_bytes} B cell-scoped vs {whole_bytes} B whole-cache "
        f"({reduction:.1f}x smaller)"
    )
