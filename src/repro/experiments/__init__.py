"""Experiment harness: one module per paper artifact.

See DESIGN.md section 4 for the experiment index (artifact -> module ->
bench target).  Everything builds on :mod:`repro.experiments.context`,
which owns the one-off training-grid run.
"""

from .ascii_plot import line_plot
from .context import ExperimentContext, build_context, default_context, platform_context
from .fig2 import (
    RATIO_GRID,
    RATIO_LABELS,
    SCENARIOS,
    Fig2Result,
    Fig2Scenario,
    normalize_1_10,
    run_fig2,
    run_scenario,
)
from .iterations import (
    CHECKPOINTS,
    GenomeStudy,
    IterationStudy,
    check_n_seeds,
    experiments_saved_fraction,
    run_iteration_study,
    study_genome,
)
from .prediction import (
    FIG5_THREADS,
    FIG6_THREADS,
    AccuracyTable,
    PredictionCurve,
    fig5_curves,
    fig6_curves,
    fig7_histogram,
    fig8_histogram,
    table4,
    table5,
)
from .report import render_histogram, render_series, render_table

__all__ = [
    "line_plot",
    "ExperimentContext",
    "build_context",
    "default_context",
    "platform_context",
    "RATIO_GRID",
    "RATIO_LABELS",
    "SCENARIOS",
    "Fig2Result",
    "Fig2Scenario",
    "normalize_1_10",
    "run_fig2",
    "run_scenario",
    "CHECKPOINTS",
    "GenomeStudy",
    "IterationStudy",
    "check_n_seeds",
    "experiments_saved_fraction",
    "run_iteration_study",
    "study_genome",
    "FIG5_THREADS",
    "FIG6_THREADS",
    "AccuracyTable",
    "PredictionCurve",
    "fig5_curves",
    "fig6_curves",
    "fig7_histogram",
    "fig8_histogram",
    "table4",
    "table5",
    "render_histogram",
    "render_series",
    "render_table",
]
