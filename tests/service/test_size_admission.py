"""Served requests with an unusable input size or iteration budget are
rejected at admission."""

import math

import pytest
from test_server import REQUEST, serve

from repro.core import campaign
from repro.service import ServiceClient, SubmitRequest


@pytest.mark.parametrize("size_mb", (0.0, -100.0, math.inf))
def test_bad_size_is_a_bad_request(tmp_path, monkeypatch, size_mb):
    def forbidden(job):
        raise AssertionError("a request with a bad size reached evaluation")

    monkeypatch.setattr(campaign, "_tune_scenario_worker", forbidden)

    async def scenario(server):
        async with ServiceClient(port=server.port) as client:
            events = await client.submit(SubmitRequest(**{**REQUEST, "size_mb": size_mb}))
        return events, server.stats

    events, stats = serve(scenario, tmp_path)
    assert events[-1]["event"] == "rejected"
    assert events[-1]["reason"] == "bad-request"
    assert stats.client_spent == {}


@pytest.mark.parametrize("iterations", (0, -5))
def test_bad_iterations_is_a_bad_request(tmp_path, monkeypatch, iterations):
    def forbidden(job):
        raise AssertionError("a request with a bad iteration budget reached evaluation")

    monkeypatch.setattr(campaign, "_tune_scenario_worker", forbidden)

    async def scenario(server):
        async with ServiceClient(port=server.port) as client:
            events = await client.submit(
                SubmitRequest(**{**REQUEST, "iterations": iterations})
            )
        return events, server.stats

    events, stats = serve(scenario, tmp_path)
    assert events[-1]["event"] == "rejected"
    assert events[-1]["reason"] == "bad-request"
    assert "iterations" in events[-1]["detail"]
    assert stats.client_spent == {}
