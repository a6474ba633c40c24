"""Derived (ingested) workloads through the store identity and the server.

A ``fasta:*`` key's name does not pin its content, so the store keys
such cells by content digest, and clients ship their runtime-registered
specs in the submit itself (``SubmitRequest.derived``).
"""

import asyncio

from repro.dna import ingest_fasta_string, register_ingest
from repro.dna.workloads import WORKLOADS
from repro.service import CampaignServer, ResultStore, ServiceClient, SubmitRequest
from repro.service.client import cell_results
from repro.service.serde import (
    decode_workload_spec,
    encode_workload_spec,
)
from repro.service.store import CellKey

import pytest

FASTA = """\
>rec1
ACGTACGTTATAAACCAATGGCACGTGGAATTCACGTACGTTATAAA
>rec2
CCAATGGGCGGTATAAAGGATCCACGTGACGTACGTGAATTCCAAT
"""

OTHER_FASTA = ">rec1\n" + "GGGGCCCCAAAATTTT" * 4 + "\n"


@pytest.fixture(autouse=True)
def clean_workload_registry():
    snapshot = dict(WORKLOADS)
    yield
    WORKLOADS.clear()
    WORKLOADS.update(snapshot)


@pytest.fixture()
def report():
    return ingest_fasta_string(FASTA, name="sub")


def serve(coro_fn, tmp_path, **server_kwargs):
    async def main():
        store = ResultStore(tmp_path / "store.jsonl")
        server = await CampaignServer(store, port=0, **server_kwargs).start()
        try:
            return await coro_fn(server)
        finally:
            await server.stop()

    return asyncio.run(main())


class TestSpecSerde:
    def test_round_trip(self, report):
        for spec in (report.workload, report.background):
            decoded = decode_workload_spec(encode_workload_spec(spec))
            assert decoded == spec
            assert decoded.content_digest() == spec.content_digest()


class TestCellKeyDigest:
    def test_builtin_workloads_have_no_digest(self):
        key = CellKey.for_request("short-read", "emil", size_mb=600.0)
        assert key.workload_digest is None

    def test_derived_workloads_carry_the_content_digest(self, report):
        register_ingest(report)
        key = CellKey.for_request(report.positive_key, "emil", size_mb=600.0)
        assert key.workload_digest == report.workload.content_digest()

    def test_same_name_different_content_occupy_different_cells(self, report):
        register_ingest(report)
        first = CellKey.for_request(report.positive_key, "emil", size_mb=600.0)
        WORKLOADS.pop(report.positive_key)
        other = ingest_fasta_string(OTHER_FASTA, name="sub")
        WORKLOADS[report.positive_key] = other.workload
        second = CellKey.for_request(report.positive_key, "emil", size_mb=600.0)
        assert first != second
        assert first.workload_digest != second.workload_digest


class TestDerivedSubmit:
    def request(self, report, **overrides):
        return SubmitRequest(
            **{
                **dict(
                    workloads=(report.positive_key, report.background_key),
                    platforms=("emil",),
                    method="SAM",
                    size_mb=600.0,
                    iterations=60,
                    derived=(
                        encode_workload_spec(report.workload),
                        encode_workload_spec(report.background),
                    ),
                ),
                **overrides,
            }
        )

    def test_submit_with_derived_specs_evaluates_both_cells(self, tmp_path, report):
        async def scenario(server):
            async with ServiceClient(port=server.port) as client:
                return await client.submit(self.request(report))

        events = serve(scenario, tmp_path)
        cells = cell_results(events)
        assert {c["workload"] for c in cells} == {
            report.positive_key,
            report.background_key,
        }
        assert all(c["status"] == "done" for c in cells)

    def test_resubmit_hits_the_store(self, tmp_path, report):
        async def scenario(server):
            async with ServiceClient(port=server.port) as client:
                first = await client.submit(self.request(report))
                second = await client.submit(self.request(report))
                return first, second

        first, second = serve(scenario, tmp_path)
        warm = {c["workload"]: c for c in cell_results(first)}
        served = {c["workload"]: c for c in cell_results(second)}
        for key, cell in served.items():
            assert cell["source"] == "store"
            assert cell["payload"] == warm[key]["payload"]  # bit-identical

    def test_conflicting_derived_spec_is_a_bad_request(self, tmp_path, report):
        other = ingest_fasta_string(OTHER_FASTA, name="sub")

        async def scenario(server):
            async with ServiceClient(port=server.port) as client:
                good = await client.submit(self.request(report))
                bad = await client.submit(
                    self.request(
                        report,
                        workloads=(other.positive_key,),
                        derived=(encode_workload_spec(other.workload),),
                    )
                )
                return good, bad

        good, bad = serve(scenario, tmp_path)
        assert all(c["status"] == "done" for c in cell_results(good))
        assert bad[-1]["event"] == "rejected"
        assert bad[-1]["reason"] == "bad-request"

    def test_unregistered_derived_key_without_specs_is_rejected(
        self, tmp_path, report
    ):
        async def scenario(server):
            async with ServiceClient(port=server.port) as client:
                return await client.submit(self.request(report, derived=()))

        events = serve(scenario, tmp_path)
        assert events[-1]["event"] == "rejected"
        assert events[-1]["reason"] == "bad-request"
