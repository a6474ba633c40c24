"""The wire protocol (service/protocol.py): requests, lines and events."""

import json

import pytest

from repro.service.protocol import (
    PROTOCOL_VERSION,
    REASON_SATURATED,
    SOURCE_EVALUATE,
    SubmitRequest,
    accepted_event,
    cell_event,
    decode_line,
    done_event,
    encode_line,
    error_event,
    rejected_event,
    stats_event,
)

FULL_REQUEST = SubmitRequest(
    client="alice",
    workloads=("dna-paper", "short-read"),
    platforms=("emil", "dualphi"),
    method="SAML",
    size_mb=1234.5,
    iterations=300,
    seed=7,
    engine="batched",
    batch_size=32,
    shards=4,
    refine=1.25,
    transfer=True,
    portfolio="sh:125x2:SAM+HC",
    derived=({"name": "x", "sequence_mb": 1.0},),
)


class TestSubmitRequest:
    def test_message_names_the_op_and_version(self):
        message = SubmitRequest().to_message()
        assert message["op"] == "submit"
        assert message["version"] == PROTOCOL_VERSION

    @pytest.mark.parametrize("request_", [SubmitRequest(), FULL_REQUEST])
    def test_round_trips_through_a_wire_line(self, request_):
        message = decode_line(encode_line(request_.to_message()))
        assert SubmitRequest.from_message(message) == request_

    def test_axes_travel_as_lists_and_come_back_as_tuples(self):
        message = json.loads(json.dumps(FULL_REQUEST.to_message()))
        assert message["workloads"] == ["dna-paper", "short-read"]
        rebuilt = SubmitRequest.from_message(message)
        assert rebuilt.workloads == ("dna-paper", "short-read")
        assert rebuilt.platforms == ("emil", "dualphi")
        assert isinstance(rebuilt.derived, tuple)

    def test_unknown_keys_are_ignored(self):
        message = {**SubmitRequest(client="bob").to_message(), "future_knob": 3}
        assert SubmitRequest.from_message(message) == SubmitRequest(client="bob")

    def test_missing_keys_take_the_defaults(self):
        assert SubmitRequest.from_message({"op": "submit"}) == SubmitRequest()

    def test_derived_specs_are_copied_not_shared(self):
        spec = {"name": "x"}
        message = SubmitRequest(derived=(spec,)).to_message()
        message["derived"][0]["name"] = "changed"
        assert spec == {"name": "x"}


class TestLines:
    def test_one_compact_line_per_message(self):
        line = encode_line({"a": 1, "b": [1, 2]})
        assert line == b'{"a":1,"b":[1,2]}\n'
        assert line.count(b"\n") == 1

    def test_floats_round_trip_exactly(self):
        value = 0.1 + 0.2
        assert decode_line(encode_line({"x": value}))["x"] == value

    @pytest.mark.parametrize("payload", [b"[1, 2]\n", b"3\n", b'"text"\n', b"null\n"])
    def test_non_object_payloads_are_rejected(self, payload):
        with pytest.raises(ValueError, match="JSON objects"):
            decode_line(payload)

    def test_malformed_json_is_a_value_error(self):
        with pytest.raises(ValueError):
            decode_line(b"{not json\n")


class TestEvents:
    def test_cell_event_omits_unset_fields(self):
        event = cell_event(3, "dna-paper", "emil", "start")
        assert event == {
            "event": "cell",
            "request_id": 3,
            "workload": "dna-paper",
            "platform": "emil",
            "status": "start",
        }

    def test_cell_event_carries_every_set_field(self):
        event = cell_event(
            3,
            "dna-paper",
            "emil",
            "error",
            source=SOURCE_EVALUATE,
            payload={"k": 1},
            reason=REASON_SATURATED,
            retry_after=0.5,
            error="boom",
            elapsed=1.5,
        )
        assert event["source"] == SOURCE_EVALUATE
        assert event["payload"] == {"k": 1}
        assert event["reason"] == REASON_SATURATED
        assert event["retry_after"] == 0.5
        assert event["error"] == "boom"
        assert event["elapsed"] == 1.5

    def test_zero_valued_fields_are_kept(self):
        event = cell_event(1, "w", "p", "rejected", retry_after=0.0, elapsed=0.0)
        assert event["retry_after"] == 0.0
        assert event["elapsed"] == 0.0

    def test_done_event_spreads_the_tallies(self):
        assert done_event(9, {"evaluate": 2, "store": 1}) == {
            "event": "done",
            "request_id": 9,
            "evaluate": 2,
            "store": 1,
        }

    def test_request_level_events(self):
        assert accepted_event(1, 4) == {"event": "accepted", "request_id": 1, "cells": 4}
        assert rejected_event(2, REASON_SATURATED) == {
            "event": "rejected",
            "request_id": 2,
            "reason": REASON_SATURATED,
            "detail": "",
        }
        assert stats_event({"hits": 1}) == {"event": "stats", "payload": {"hits": 1}}
        assert error_event("bad") == {"event": "error", "detail": "bad"}
