"""The campaign server: dedup, coalescing, quotas, saturation, identity.

Every test drives a real server over a real localhost socket inside
``asyncio.run`` (``port=0``, in-process thread executor so monkeypatch
spies reach the evaluation path).
"""

import asyncio
import threading

from repro.core import campaign, tune_scenario
from repro.service import CampaignServer, ResultStore, ServiceClient, SubmitRequest
from repro.service.client import cell_results
from repro.service.serde import decode_scenario

SIZE_MB = 600.0
ITERS = 60

REQUEST = dict(
    workloads=("short-read",),
    platforms=("emil",),
    method="SAM",
    size_mb=SIZE_MB,
    iterations=ITERS,
)


def serve(coro_fn, tmp_path, **server_kwargs):
    """Run ``coro_fn(server)`` against a started server; return its result."""

    async def main():
        store = ResultStore(tmp_path / "store.jsonl")
        server = await CampaignServer(store, port=0, **server_kwargs).start()
        try:
            return await coro_fn(server)
        finally:
            await server.stop()

    return asyncio.run(main())


async def submit_once(server, **overrides):
    async with ServiceClient(port=server.port) as client:
        return await client.submit(SubmitRequest(**{**REQUEST, **overrides}))


def payload_of(events):
    (cell,) = cell_results(events)
    assert cell["status"] == "done", cell
    return cell


class TestDedupAndCoalescing:
    def test_duplicate_sequential_submits_hit_the_store(self, tmp_path):
        async def scenario(server):
            first = await submit_once(server)
            second = await submit_once(server)
            return first, second

        first, second = serve(scenario, tmp_path)
        a, b = payload_of(first), payload_of(second)
        assert a["source"] == "evaluate"
        assert b["source"] == "store"
        assert a["payload"] == b["payload"]

    def test_concurrent_duplicates_coalesce_to_one_evaluation(
        self, tmp_path, monkeypatch
    ):
        release = threading.Event()
        calls = []
        original = campaign._tune_scenario_worker

        def gated_worker(job):
            calls.append(job)
            # Hold the leader until a follower has visibly coalesced, so
            # the overlap is deterministic rather than a timing accident.
            release.wait(timeout=10)
            return original(job)

        monkeypatch.setattr(campaign, "_tune_scenario_worker", gated_worker)

        def on_event(event):
            if event.get("status") == "start" and event.get("source") == "coalesced":
                release.set()

        async def scenario(server):
            async def one_submit():
                async with ServiceClient(port=server.port) as client:
                    return await client.submit(
                        SubmitRequest(**REQUEST), on_event=on_event
                    )

            events = await asyncio.gather(one_submit(), one_submit())
            return events, server.stats

        (first, second), stats = serve(scenario, tmp_path)
        assert len(calls) == 1  # the leader evaluated exactly once
        sources = sorted([payload_of(first)["source"], payload_of(second)["source"]])
        assert sources == ["coalesced", "evaluate"]
        assert payload_of(first)["payload"] == payload_of(second)["payload"]
        assert stats.evaluated == 1 and stats.coalesced == 1

    def test_duplicate_cells_within_one_request_coalesce(self, tmp_path):
        async def scenario(server):
            return await submit_once(server, workloads=("short-read", "short-read"))

        events = serve(scenario, tmp_path)
        done = events[-1]
        assert done["evaluated"] == 1 and done["coalesced"] == 1
        payloads = [c["payload"] for c in cell_results(events)]
        assert payloads[0] == payloads[1]


class TestRestartDedup:
    def test_served_from_store_after_restart_with_zero_em_walks(
        self, tmp_path, monkeypatch
    ):
        first = serve(submit_once, tmp_path)
        warm = payload_of(first)
        assert warm["source"] == "evaluate"

        # "Restart": fresh store instance over the same file, cold EM
        # cache, and a tripwire that fails the test if anything tries
        # to recompute the enumeration reference.
        campaign.clear_em_cache()

        def forbidden(*args, **kwargs):
            raise AssertionError("run_em must not run for a stored cell")

        monkeypatch.setattr(campaign, "run_em", forbidden)
        monkeypatch.setattr(campaign, "_tune_scenario_worker", forbidden)

        second = serve(submit_once, tmp_path)
        served = payload_of(second)
        assert served["source"] == "store"
        assert served["payload"] == warm["payload"]  # bit-identical


class TestBitIdentity:
    def test_served_payload_equals_direct_tune_scenario(self, tmp_path):
        direct = tune_scenario(
            "short-read", "emil", method="SAM", size_mb=SIZE_MB, iterations=ITERS
        )
        campaign.clear_em_cache()
        events = serve(submit_once, tmp_path)
        assert decode_scenario(payload_of(events)["payload"]) == direct


class TestCellScopedPreseed:
    def test_evaluation_re_merges_only_its_own_cells_references(self, tmp_path):
        from repro.core.campaign import _em_cache_key
        from repro.core.params import workload_space
        from repro.dna.workloads import get_workload
        from repro.machines import get_platform

        # The requested cell's own reference, plus K references of an
        # unrelated cell (one result under K seeds' keys), all held in
        # memory and already in the store the server opens.
        tune_scenario(
            "short-read", "emil", method="SAM", size_mb=SIZE_MB, iterations=ITERS
        )
        own = len(campaign._EM_CACHE)
        spec, workload = get_platform("fathost"), get_workload("dense-motif")
        space = workload_space(workload, spec)
        result = campaign._em_reference(spec, workload, space, SIZE_MB, 0)
        key = _em_cache_key(spec, workload, space, SIZE_MB, 0, None)
        held = 24
        for seed in range(1, held):
            campaign._EM_CACHE[key[:4] + (seed, None)] = result
        assert len(campaign._EM_CACHE) == own + held
        store = ResultStore(tmp_path / "store.jsonl")
        for k, v in campaign._EM_CACHE.items():
            store.put_em(k, v)

        async def scenario(server):
            before = server.store.stats.duplicates
            events = await submit_once(server)
            return events, server.store.stats.duplicates - before

        events, duplicates = serve(scenario, tmp_path)
        assert payload_of(events)["source"] == "evaluate"
        assert duplicates <= own < held


class TestQuota:
    def test_quota_counts_led_evaluations_per_client(self, tmp_path):
        async def scenario(server):
            spent = await submit_once(server, client="alice")
            over = await submit_once(
                server, client="alice", workloads=("dense-motif",)
            )
            other = await submit_once(
                server, client="bob", workloads=("dense-motif",)
            )
            free = await submit_once(server, client="alice")  # store hit
            return spent, over, other, free

        spent, over, other, free = serve(scenario, tmp_path, quota=1)
        assert payload_of(spent)["source"] == "evaluate"
        (rejected,) = cell_results(over)
        assert rejected["status"] == "rejected"
        assert rejected["reason"] == "quota-exhausted"
        assert payload_of(other)["source"] == "evaluate"
        # Store hits are free: the exhausted client still gets answers.
        assert payload_of(free)["source"] == "store"


class TestSaturation:
    def test_full_queue_rejects_with_retry_after(self, tmp_path, monkeypatch):
        release = threading.Event()
        original = campaign._tune_scenario_worker

        def gated_worker(job):
            release.wait(timeout=10)
            return original(job)

        monkeypatch.setattr(campaign, "_tune_scenario_worker", gated_worker)

        def on_event(event):
            if event.get("status") == "rejected":
                release.set()

        async def scenario(server):
            async with ServiceClient(port=server.port) as client:
                return await client.submit(
                    SubmitRequest(
                        **{**REQUEST, "workloads": ("short-read", "dense-motif")}
                    ),
                    on_event=on_event,
                )

        events = serve(scenario, tmp_path, max_pending=1)
        cells = {c["workload"]: c for c in cell_results(events)}
        assert cells["short-read"]["status"] == "done"
        rejected = cells["dense-motif"]
        assert rejected["status"] == "rejected"
        assert rejected["reason"] == "saturated"
        assert rejected["retry_after"] > 0


class TestProtocolEdges:
    def test_bad_request_is_rejected_not_fatal(self, tmp_path):
        async def scenario(server):
            async with ServiceClient(port=server.port) as client:
                bad = await client.submit(
                    SubmitRequest(**{**REQUEST, "workloads": ("no-such-workload",)})
                )
                good = await client.submit(SubmitRequest(**REQUEST))
                return bad, good

        bad, good = serve(scenario, tmp_path)
        assert bad[-1]["event"] == "rejected"
        assert bad[-1]["reason"] == "bad-request"
        assert payload_of(good)["source"] == "evaluate"

    def test_malformed_cells_are_rejected_at_admission(self, tmp_path, monkeypatch):
        """Unknown method/engine and deviceless ML cells never reach evaluation."""

        def forbidden(job):
            raise AssertionError("a malformed request reached evaluation")

        monkeypatch.setattr(campaign, "_tune_scenario_worker", forbidden)
        malformed = (
            {"method": "FOO"},
            {"engine": "bogus"},
            {"method": "SAML", "platforms": ("manycore",)},
        )

        async def scenario(server):
            async with ServiceClient(port=server.port) as client:
                events = [
                    await client.submit(SubmitRequest(**{**REQUEST, **overrides}))
                    for overrides in malformed
                ]
            return events, server.stats

        events, stats = serve(scenario, tmp_path, quota=5)
        for overrides, bad in zip(malformed, events):
            assert bad[-1]["event"] == "rejected", overrides
            assert bad[-1]["reason"] == "bad-request", overrides
        assert stats.client_spent == {}
        assert stats.eval_retries == 0

    def test_evaluation_failure_streams_an_error_cell(self, tmp_path, monkeypatch):
        def exploding(job):
            raise RuntimeError("synthetic evaluation failure")

        monkeypatch.setattr(campaign, "_tune_scenario_worker", exploding)

        def scenario_fn(server):
            return submit_once(server)

        events = serve(scenario_fn, tmp_path)
        (cell,) = cell_results(events)
        assert cell["status"] == "error"
        assert "synthetic evaluation failure" in cell["error"]
        assert events[-1]["errors"] == 1

    def test_stats_op_reports_admission_and_store_counters(self, tmp_path):
        async def scenario(server):
            async with ServiceClient(port=server.port) as client:
                await client.submit(SubmitRequest(**REQUEST))
                await client.submit(SubmitRequest(**REQUEST))
                return await client.stats()

        stats = serve(scenario, tmp_path)
        assert stats["server"]["evaluated"] == 1
        assert stats["server"]["store_hits"] == 1
        assert stats["store"]["scenario_entries"] == 1
        assert stats["store"]["em_entries"] >= 1

    def test_submit_request_round_trips_through_the_wire_form(self):
        request = SubmitRequest(
            client="ci",
            workloads=("short-read", "dense-motif"),
            platforms=("emil",),
            method="EM",
            size_mb=SIZE_MB,
            refine=2.5,
        )
        assert SubmitRequest.from_message(request.to_message()) == request
