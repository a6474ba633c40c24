"""The field-driven codec (repro/codec.py) against stored bytes and generated records.

``golden_store.jsonl`` was written by the hand-written per-type
encoders the codec replaced: every record must still load, equal a
fresh computation of its cell, and re-encode to the same line bytes —
stores written before the codec stay readable, and new writes stay
byte-compatible with them.
"""

import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.codec import decode, encode
from repro.core.campaign import (
    PlatformTuneReport,
    ScenarioReport,
    _EM_CACHE,
    clear_em_cache,
    set_result_store,
    tune_scenario,
)
from repro.core.energy import Energy
from repro.core.methods import MethodResult
from repro.core.options import TuningOptions
from repro.core.params import DeviceSlot, SystemConfiguration
from repro.core.portfolio import PORTFOLIO_ENTRANTS, PortfolioResult, PortfolioSpec, RungEntry
from repro.dna.workloads import WorkloadSpec
from repro.machines.affinity import DEVICE_AFFINITIES, HOST_AFFINITIES
from repro.service.serde import decode_scenario, encode_scenario
from repro.service.store import CellKey, ResultStore

GOLDEN = Path(__file__).with_name("golden_store.jsonl")

#: The cells the golden store holds: one-device, two-device, deviceless,
#: and a portfolio race, all SAM on short-read at 300 MB, 60 iterations,
#: seed 0 (their EM references ride along).
SIZE_MB = 300.0
ITERS = 60
CELLS = (
    ("short-read", "emil", None),
    ("short-read", "dualphi", None),
    ("short-read", "manycore", None),
    ("short-read", "emil", "sh:25x2:SAM+RS+HC+TABU"),
)


def options_for(portfolio):
    return TuningOptions(portfolio=None if portfolio is None else PortfolioSpec.parse(portfolio))


@pytest.fixture
def fresh_em_cache():
    clear_em_cache()
    previous = set_result_store(None)
    yield
    set_result_store(previous)
    clear_em_cache()


class TestGoldenStore:
    def test_fixture_covers_the_record_shapes(self):
        store = ResultStore(GOLDEN)
        assert store.count("em") == 3
        assert store.count("scenario") == len(CELLS)
        assert store.stats.corrupt == store.stats.invalidated == 0

    def test_records_decode_to_fresh_computations(self, tmp_path, fresh_em_cache):
        shutil.copy(GOLDEN, tmp_path / "golden.jsonl")
        store = ResultStore(tmp_path / "golden.jsonl")
        for workload, platform, portfolio in CELLS:
            opts = options_for(portfolio)
            fresh = tune_scenario(
                workload, platform, method="SAM", size_mb=SIZE_MB, iterations=ITERS,
                options=opts,
            )
            cell = CellKey.for_request(
                workload, platform, method="SAM", size_mb=SIZE_MB, iterations=ITERS,
                options=opts,
            )
            stored = store.get_scenario(cell)
            assert stored == fresh
            assert stored.report.engine_batches == fresh.report.engine_batches
            assert stored.report.engine_cache_hits == fresh.report.engine_cache_hits
        assert len(_EM_CACHE) == store.count("em")
        for key, reference in _EM_CACHE.items():
            assert store.get_em(key) == reference
        assert store.stats.misses == 0

    def test_records_reencode_to_the_same_bytes(self):
        decoders = {
            "em": lambda payload: encode(decode(MethodResult, payload)),
            "scenario": lambda payload: encode_scenario(decode_scenario(payload)),
        }
        lines = GOLDEN.read_bytes().splitlines(keepends=True)
        assert len(lines) == 3 + len(CELLS)
        for line in lines:
            record = json.loads(line)
            record["payload"] = decoders[record["kind"]](record["payload"])
            rewritten = (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")
            assert rewritten == line


# -- generated round trips over every type the codec decodes -----------------

finite = st.floats(allow_nan=False, allow_infinity=False)
percent = st.floats(min_value=0.0, max_value=100.0)
counts = st.integers(min_value=0, max_value=2**53)
positive = st.integers(min_value=1, max_value=100_000)
names = st.text(min_size=1, max_size=12).filter(str.strip)

slots = st.builds(
    DeviceSlot,
    threads=positive,
    affinity=st.sampled_from(DEVICE_AFFINITIES),
    share=st.floats(min_value=0.0, max_value=100.0 / 8),
)
configs = st.builds(
    SystemConfiguration,
    host_threads=positive,
    host_affinity=st.sampled_from(HOST_AFFINITIES),
    device_threads=positive,
    device_affinity=st.sampled_from(DEVICE_AFFINITIES),
    host_fraction=st.floats(min_value=0.0, max_value=50.0),
    extra_devices=st.lists(slots, max_size=3).map(tuple),
)
energies = st.builds(
    Energy, t_host=finite, t_device=finite, t_extra=st.lists(finite, max_size=3).map(tuple)
)
method_results = st.builds(
    MethodResult,
    method=names,
    config=configs,
    measured=energies,
    search_energy=energies,
    experiments=counts,
    search_evaluations=counts,
)
portfolio_specs = st.builds(
    PortfolioSpec,
    rung0=positive,
    eta=st.integers(min_value=2, max_value=8),
    entrants=st.lists(st.sampled_from(PORTFOLIO_ENTRANTS), min_size=1, unique=True).map(tuple),
)
rung_entries = st.builds(
    RungEntry,
    method=names,
    rung=counts,
    budget=counts,
    value=finite,
    eliminated=st.booleans(),
)
portfolios = st.builds(
    PortfolioResult,
    spec=portfolio_specs,
    winner=names,
    entries=st.lists(rung_entries, max_size=4).map(tuple),
    experiments=counts,
    search_evaluations=counts,
)
platform_reports = st.builds(
    PlatformTuneReport,
    platform=names,
    description=st.text(max_size=20),
    method=names,
    config=configs,
    measured_time=finite,
    em_time=finite,
    em_config=configs,
    host_only_time=finite,
    device_only_time=st.none() | finite,
    experiments=counts,
    search_evaluations=counts,
    space_size=counts,
    engine_batches=counts,
    engine_cache_hits=counts,
    training_experiments=counts,
    portfolio=st.none() | portfolios,
)
scenarios = st.builds(ScenarioReport, workload=names, size_mb=finite, report=platform_reports)
workload_specs = st.builds(
    WorkloadSpec,
    name=names,
    sequence_mb=st.floats(min_value=1e-3, max_value=1e6),
    alphabet_size=st.integers(min_value=2, max_value=64),
    pattern_lengths=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=6)
    .map(tuple),
    match_density=st.none() | st.floats(min_value=0.0, max_value=1.0),
    state_sharing=st.floats(min_value=0.0, max_value=0.99),
    transfer_overlap=st.floats(min_value=0.0, max_value=1.0),
    description=st.text(max_size=20),
)

RECORDS = {
    DeviceSlot: slots,
    SystemConfiguration: configs,
    Energy: energies,
    MethodResult: method_results,
    PortfolioSpec: portfolio_specs,
    RungEntry: rung_entries,
    PortfolioResult: portfolios,
    PlatformTuneReport: platform_reports,
    ScenarioReport: scenarios,
    WorkloadSpec: workload_specs,
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_generated_records_round_trip_through_json(cls):
    @settings(max_examples=40, deadline=None)
    @given(RECORDS[cls])
    def round_trip(record):
        rebuilt = decode(cls, json.loads(json.dumps(encode(record))))
        assert rebuilt == record
        assert repr(rebuilt) == repr(record)

    round_trip()
