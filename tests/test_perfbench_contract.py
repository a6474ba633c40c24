"""The program names the end-to-end benchmark in ``perfbench/`` binds.

``perfbench/spans.py`` wraps the entry point of every layer in
:data:`LAYERS` by name, and the workloads read a few report fields and
call the package's public tuning functions.  A refactor that renames or
moves any of them breaks the benchmark run, not the program, so this
resolves each name exactly the way the benchmark does.  The benchmark
files are only read, never changed.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

import repro
from repro.core.campaign import PlatformTuneReport

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = load_layers()


@pytest.mark.parametrize(
    "module_name, path",
    sorted({(module_name, path) for _, module_name, path, _ in LAYERS}),
)
def test_layer_entry_point_resolves(module_name, path):
    # The lookup of ``Tracer.install``: a method comes from its owner's
    # own ``__dict__`` (an inherited one would not be wrapped in place),
    # a function from the module's attributes.
    module = importlib.import_module(module_name)
    owner_path, _, attr = path.rpartition(".")
    if owner_path:
        owner = getattr(module, owner_path)
        assert callable(owner.__dict__[attr])
    else:
        assert callable(getattr(module, attr))


def test_report_fields_the_workloads_read():
    fields = {f.name for f in dataclasses.fields(PlatformTuneReport)}
    assert {"engine_cache_hits", "experiments", "search_evaluations"} <= fields


@pytest.mark.parametrize(
    "name",
    [
        "TuningOptions",
        "get_platform",
        "get_workload",
        "platform_names",
        "tune_matrix",
        "tune_scenario",
        "workload_names",
        "workload_space",
    ],
)
def test_public_entry_points_the_workloads_call(name):
    assert callable(getattr(repro, name))
