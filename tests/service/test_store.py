"""The durable result store (service/store.py, repro/codec.py)."""

import threading

import pytest

from repro.codec import encode as encode_method_result
from repro.core.campaign import _em_cache_key, tune_scenario
from repro.core.methods import run_method
from repro.core.options import TuningOptions
from repro.core.portfolio import PortfolioSpec
from repro.core.params import workload_space
from repro.dna.workloads import get_workload
from repro.machines import get_platform
from repro.machines.simulator import PlatformSimulator
from repro.service import CellKey, ResultStore
from repro.service.store import STORE_SCHEMA_VERSION, em_key_digest

SIZE_MB = 600.0
ITERS = 60


def em_reference():
    """One real EM reference plus its campaign cache key."""
    spec = get_platform("emil")
    workload = get_workload("short-read")
    space = workload_space(workload, spec)
    sim = PlatformSimulator(spec, workload.profile(), seed=0)
    result = run_method("EM", space, sim, SIZE_MB)
    key = _em_cache_key(spec, workload, space, SIZE_MB, 0, None)
    return key, result


def scenario_cell():
    """One real served cell: the report and its dedup identity."""
    report = tune_scenario(
        "short-read", "emil", method="SAM", size_mb=SIZE_MB, iterations=ITERS
    )
    cell = CellKey.for_request(
        "short-read", "emil", method="SAM", size_mb=SIZE_MB, iterations=ITERS
    )
    return cell, report


class TestCellKey:
    def test_canonicalizes_names_and_size(self):
        a = CellKey.for_request("short-read", "EMIL", size_mb=SIZE_MB)
        b = CellKey.for_request("Short-Read", "emil", size_mb=SIZE_MB)
        assert a == b
        assert a.digest() == b.digest()
        assert a.platform == "Emil"

    def test_default_size_dedups_against_explicit_equal_size(self):
        wspec = get_workload("short-read")
        assert CellKey.for_request("short-read", "emil") == CellKey.for_request(
            "short-read", "emil", size_mb=wspec.sequence_mb
        )

    def test_result_relevant_knobs_change_the_digest(self):
        base = CellKey.for_request("short-read", "emil", size_mb=SIZE_MB)
        for other in (
            CellKey.for_request("short-read", "emil", size_mb=SIZE_MB, seed=1),
            CellKey.for_request("short-read", "emil", size_mb=SIZE_MB, method="EM"),
            CellKey.for_request(
                "short-read", "emil", size_mb=SIZE_MB, options=TuningOptions(refine=2.5)
            ),
            CellKey.for_request("short-read", "fathost", size_mb=SIZE_MB),
        ):
            assert other.digest() != base.digest()

    def test_unknown_names_are_rejected(self):
        with pytest.raises(ValueError):
            CellKey.for_request("no-such-workload", "emil")
        with pytest.raises(ValueError):
            CellKey.for_request("short-read", "no-such-platform")
        with pytest.raises(ValueError, match="unknown method"):
            CellKey.for_request("short-read", "emil", method="FOO")
        with pytest.raises(ValueError, match="no accelerator"):
            CellKey.for_request("short-read", "manycore", method="SAML")


class TestGoldenDigests:
    """Pinned request identities: a refactor must keep every stored record reachable.

    A changed hex here means every ``scenario`` record written before the
    change is orphaned; that needs a ``STORE_SCHEMA_VERSION`` bump, not a
    new pin.
    """

    def test_default_sam_request(self):
        key = CellKey.for_request("dna-paper", "emil")
        assert key.digest() == (
            "2ebcbfdc47b7178c288a5f9afe05802f1c24151994287b6df36772ea827f3b4b"
        )

    def test_refined_serial_multi_device_request(self):
        key = CellKey.for_request(
            "dna-paper", "dualphi", options=TuningOptions(engine="serial", refine=2.5)
        )
        assert key.digest() == (
            "1216b5713faf2e179c0058a2bcf53d15a8c883880b8bbdaf1688ff54a6b607cb"
        )

    def test_transfer_portfolio_request(self):
        options = TuningOptions(transfer=True, portfolio=PortfolioSpec.parse("sh:25x2"))
        key = CellKey.for_request("short-read", "emil", options=options)
        assert key.digest() == (
            "cffe553e67ed65fd96912873c9951a64e1b90630319b035f647bf3edaa74d3b2"
        )

    def test_schema_version(self):
        assert STORE_SCHEMA_VERSION == 3


class TestEmRoundTrip:
    def test_bit_identical_em_reference(self, tmp_path):
        key, result = em_reference()
        store = ResultStore(tmp_path / "s.jsonl")
        assert store.put_em(key, result)
        assert store.get_em(key) == result  # exact dataclass equality

    def test_survives_reopen(self, tmp_path):
        key, result = em_reference()
        ResultStore(tmp_path / "s.jsonl").put_em(key, result)
        reopened = ResultStore(tmp_path / "s.jsonl")
        assert reopened.get_em(key) == result
        assert reopened.count("em") == 1

    def test_annealing_traces_are_refused(self):
        spec = get_platform("emil")
        workload = get_workload("short-read")
        space = workload_space(workload, spec)
        sim = PlatformSimulator(spec, workload.profile(), seed=0)
        sam = run_method("SAM", space, sim, SIZE_MB, iterations=ITERS)
        assert sam.annealing is not None
        with pytest.raises(ValueError, match="annealing"):
            encode_method_result(sam)

    def test_key_digest_tracks_calibration_content(self):
        spec = get_workload("short-read")
        emil, fathost = get_platform("emil"), get_platform("fathost")
        k1 = _em_cache_key(emil, spec, workload_space(spec, emil), SIZE_MB, 0, None)
        k2 = _em_cache_key(fathost, spec, workload_space(spec, fathost), SIZE_MB, 0, None)
        assert em_key_digest(k1) != em_key_digest(k2)
        assert em_key_digest(k1) == em_key_digest(k1)


class TestScenarioRoundTrip:
    def test_bit_identical_served_cell(self, tmp_path):
        cell, report = scenario_cell()
        store = ResultStore(tmp_path / "s.jsonl")
        assert store.put_scenario(cell, report)
        assert store.get_scenario(cell) == report

    def test_duplicate_put_is_first_one_wins(self, tmp_path):
        cell, report = scenario_cell()
        store = ResultStore(tmp_path / "s.jsonl")
        assert store.put_scenario(cell, report)
        assert not store.put_scenario(cell, report)
        assert store.stats.duplicates == 1
        assert store.count("scenario") == 1


class TestDurability:
    def test_foreign_schema_versions_are_invalidated(self, tmp_path):
        cell, report = scenario_cell()
        path = tmp_path / "s.jsonl"
        ResultStore(path).put_scenario(cell, report)
        future = ResultStore(path, schema_version=STORE_SCHEMA_VERSION + 1)
        assert future.get_scenario(cell) is None
        assert future.stats.invalidated == 1
        assert len(future) == 0

    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path):
        cell, report = scenario_cell()
        path = tmp_path / "s.jsonl"
        ResultStore(path).put_scenario(cell, report)
        with open(path, "a") as fh:
            fh.write("not json at all\n")
            fh.write('["a", "json", "array"]\n')
        reopened = ResultStore(path)
        assert reopened.stats.corrupt == 2
        assert reopened.get_scenario(cell) == report

    def test_refresh_sees_another_writers_entries(self, tmp_path):
        path = tmp_path / "s.jsonl"
        reader = ResultStore(path)
        cell, report = scenario_cell()
        writer = ResultStore(path)
        writer.put_scenario(cell, report)
        # The read-through path refreshes before declaring a miss, so
        # the reader sees the foreign entry without an explicit call.
        assert reader.get_scenario(cell) == report
        assert reader.stats.hits == 1

    def test_partial_trailing_line_is_not_consumed(self, tmp_path):
        path = tmp_path / "s.jsonl"
        cell, report = scenario_cell()
        ResultStore(path).put_scenario(cell, report)
        with open(path, "a") as fh:
            fh.write('{"schema": 1, "kind": "scenario", "key": "trunca')
        reopened = ResultStore(path)
        assert reopened.count("scenario") == 1
        assert reopened.stats.corrupt == 0  # never parsed a partial line
        assert reopened.get_scenario(cell) == report


class TestThreadSafety:
    def test_concurrent_refresh_and_put_adopt_each_line_once(self, tmp_path):
        """Threads tailing and writing one instance never tear its offset.

        Two refreshes racing on one instance used to read the same
        chunk and advance the offset twice, landing it mid-line: later
        reads then quarantined half-lines of a file only this process
        wrote.  Each line must be adopted (or, for this instance's own
        records, counted as a duplicate) exactly once.
        """
        key, result = em_reference()
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        foreign = ResultStore(path)  # another process's instance
        writers, per_writer = 3, 30

        def keys(offset):
            return [key[:4] + (offset + i, None) for i in range(per_writer)]

        done = threading.Event()
        start = threading.Barrier(writers + 3)

        def write(target, offset):
            start.wait()
            for k in keys(offset):
                target.put_em(k, result)

        def tail():
            start.wait()
            while not done.is_set():
                store.refresh()

        own = [
            threading.Thread(target=write, args=(store, 1000 * (w + 1)))
            for w in range(writers)
        ]
        other = threading.Thread(target=write, args=(foreign, 0))
        tails = [threading.Thread(target=tail) for _ in range(2)]
        for t in own + [other] + tails:
            t.start()
        for t in own + [other]:
            t.join()
        done.set()
        for t in tails:
            t.join()
        store.refresh()

        assert store.stats.corrupt == 0
        assert store.stats.puts == writers * per_writer
        # Every own record is read back exactly once (a duplicate of
        # the index entry _put made); every foreign one is adopted once.
        assert store.stats.duplicates == writers * per_writer
        assert len(store) == (writers + 1) * per_writer
        assert store.get_em(key[:4] + (0, None)) == result
        assert ResultStore(path).stats.corrupt == 0
