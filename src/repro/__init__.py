"""repro — Combinatorial Optimization of Work Distribution on
Heterogeneous Systems (Memeti & Pllana, ICPP Workshops 2016).

A full reproduction: the SAML autotuner (simulated annealing + boosted
decision tree regression), the heterogeneous-platform measurement
substrate it optimizes against, the finite-automata DNA sequence
analysis workload, and the complete experiment harness for the paper's
figures and tables.

Typical use::

    from repro import WorkDistributionTuner

    tuner = WorkDistributionTuner()
    tuner.train()                       # 7200-experiment training grid
    outcome = tuner.tune(3170.0)        # SAML, 1000 iterations
    print(outcome.config.describe(), outcome.speedup_vs_host_only)

Subpackages
-----------
``repro.core``
    Parameter space (Table I), simulated annealing (Fig. 3), the
    EM/EML/SAM/SAML methods (Table II), training pipeline and tuner.
``repro.machines``
    Platform substrate: specs (Table III), the named-platform registry,
    affinity placement, analytic performance model, noisy measurement
    simulator.
``repro.dna``
    Workload substrate: synthetic genomes, Aho-Corasick automata,
    sequential/vectorized/chunk-parallel (PaREM) matchers.
``repro.ml``
    From-scratch regression stack: CART, gradient boosting, linear and
    Poisson baselines, error metrics (Eqs. 5-6).
``repro.runtime``
    Offload execution model (Eq. 2), partitioning, adaptive rebalancing,
    multi-accelerator extension.
``repro.search``
    Baseline metaheuristics for ablation (GA, tabu, hill climbing,
    random).
``repro.service``
    Tuning as a service: durable cross-process result store, asyncio
    campaign server (dedup, coalescing, quotas, saturation), wire
    protocol, and client (`repro serve` / `repro submit`).
``repro.experiments``
    One module per paper figure/table; see DESIGN.md's experiment index.
"""

from .core import (
    DEFAULT_SPACE,
    MatrixResult,
    MethodResult,
    ParameterSpace,
    PlatformTuneReport,
    ScenarioReport,
    SimulatedAnnealing,
    SystemConfiguration,
    TuningOptions,
    TuningOutcome,
    WorkDistributionTuner,
    platform_space,
    run_em,
    run_eml,
    run_sam,
    run_saml,
    tune_matrix,
    tune_platform,
    tune_scenario,
    workload_space,
)
from .dna import (
    BUNDLED_FASTA,
    DNASequenceAnalysis,
    IngestReport,
    WorkloadSpec,
    derived_key,
    get_workload,
    ingest_fasta,
    ingest_fasta_string,
    register_ingest,
    register_workload,
    resolve_workload,
    workload_names,
)
from .machines import (
    EMIL,
    PerfProfile,
    PlatformSimulator,
    PlatformSpec,
    WorkloadProfile,
    get_platform,
    platform_names,
    register_platform,
    resolve_platform,
)
from .ml import BoostedDecisionTreeRegressor

__version__ = "1.1.0"

__all__ = [
    "DEFAULT_SPACE",
    "MethodResult",
    "ParameterSpace",
    "PlatformTuneReport",
    "SimulatedAnnealing",
    "SystemConfiguration",
    "TuningOptions",
    "TuningOutcome",
    "WorkDistributionTuner",
    "MatrixResult",
    "ScenarioReport",
    "platform_space",
    "workload_space",
    "run_em",
    "run_eml",
    "run_sam",
    "run_saml",
    "tune_matrix",
    "tune_platform",
    "tune_scenario",
    "BUNDLED_FASTA",
    "DNASequenceAnalysis",
    "IngestReport",
    "WorkloadSpec",
    "derived_key",
    "get_workload",
    "ingest_fasta",
    "ingest_fasta_string",
    "register_ingest",
    "register_workload",
    "resolve_workload",
    "workload_names",
    "EMIL",
    "PerfProfile",
    "PlatformSimulator",
    "PlatformSpec",
    "WorkloadProfile",
    "get_platform",
    "platform_names",
    "register_platform",
    "resolve_platform",
    "BoostedDecisionTreeRegressor",
    "__version__",
]
