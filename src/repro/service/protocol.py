"""The wire protocol: newline-delimited JSON over a stream pair.

One request per line from the client; a stream of event lines back
from the server.  Three operations:

``submit``
    A batch of tuning cells (``workloads x platforms`` under one set of
    method knobs).  The server answers with ``accepted`` (or
    ``rejected``), then one ``cell`` event per cell per stage as each
    cell progresses — *incremental* progress, cells land as they finish,
    not in submission order — and finally ``done`` with the tallies.
``stats``
    One ``stats`` event with the server's admission counters and the
    store's hit/miss/put counters.
``shutdown``
    Asks the server to stop accepting connections and exit its serve
    loop (used by tests and operators; in-flight evaluations finish).

Cell events carry ``status`` (``start`` / ``done`` / ``rejected`` /
``error``) and ``source`` — how the cell was satisfied:

``store``
    Answered from the durable :class:`~repro.service.store.ResultStore`
    with zero computation (dedup across time and processes).
``coalesced``
    An identical cell was already in flight; this request awaited the
    leader's future and shares its payload verbatim.
``evaluate``
    This request led the evaluation (charged against its client quota).

Rejections carry ``reason`` (``saturated`` / ``quota-exhausted`` /
``bad-request``); saturation rejections add ``retry_after`` seconds —
the graceful-degradation contract, instead of unbounded queue growth.

Failure contract: a cell whose evaluation fails — retry budget
exhausted, deadline exceeded, or a cancelled leader — produces a
``cell`` event with ``status="error"``, the failure text in ``error``,
and ``retry_after`` (seconds before a re-submit is worth trying).
Coalesced followers receive the *same structured event* as the leader:
a broken in-flight future is never shared, so no follower can hang on
a leader that died.  These are existing ``cell_event`` fields — no
wire-format change — so older clients simply surface the error text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..codec import encode

PROTOCOL_VERSION = 1

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7911

#: Cell event sources, in the order admission tries them.
SOURCE_STORE = "store"
SOURCE_COALESCED = "coalesced"
SOURCE_EVALUATE = "evaluate"

#: Rejection reasons.
REASON_SATURATED = "saturated"
REASON_QUOTA = "quota-exhausted"
REASON_BAD_REQUEST = "bad-request"


@dataclass(frozen=True)
class SubmitRequest:
    """One batch of tuning cells under shared method knobs.

    ``workloads x platforms`` expands server-side into independent
    cells; every other field maps 1:1 onto
    :func:`~repro.core.campaign.tune_scenario` arguments.  ``client``
    names the quota bucket the evaluations are charged to.

    ``derived`` carries runtime-registered workload specs (each the
    :func:`repro.codec.encode` form of a
    :class:`~repro.dna.workloads.WorkloadSpec`, rebuilt server-side with
    ``decode(WorkloadSpec, entry)``) that the server registers *before*
    resolving cells — how a client submits its own
    ingested ``fasta:*`` workloads to a server that has never seen the
    underlying FASTA.  A derived entry conflicting with the server's
    registry rejects the whole request as ``bad-request``.
    """

    client: str = "anonymous"
    workloads: tuple[str, ...] = ("dna-paper",)
    platforms: tuple[str, ...] = ("emil",)
    method: str = "SAM"
    size_mb: float | None = None
    iterations: int = 1000
    seed: int = 0
    engine: str | None = "cached+batched"
    batch_size: int = 64
    shards: int = 1
    refine: float | None = None
    #: Warm-start ML training from neighbor cells (result-relevant, see
    #: :class:`~repro.core.options.TuningOptions.transfer`).
    transfer: bool = False
    #: Successive-halving schedule string
    #: (:meth:`~repro.core.portfolio.PortfolioSpec.key` format, parsed
    #: server-side via :meth:`~repro.core.portfolio.PortfolioSpec.parse`),
    #: or ``None`` for the classic single-method path.
    portfolio: str | None = None
    derived: tuple[dict, ...] = ()

    def to_message(self) -> dict:
        return {"op": "submit", "version": PROTOCOL_VERSION, **encode(self)}

    @classmethod
    def from_message(cls, message: dict) -> "SubmitRequest":
        known = {f for f in cls.__dataclass_fields__}
        kwargs = {k: v for k, v in message.items() if k in known}
        for axis in ("workloads", "platforms"):
            if axis in kwargs:
                kwargs[axis] = tuple(kwargs[axis])
        if "derived" in kwargs:
            kwargs["derived"] = tuple(dict(spec) for spec in kwargs["derived"])
        return cls(**kwargs)


def encode_line(message: dict) -> bytes:
    """One protocol message as a complete wire line."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one wire line; raises ``ValueError`` on non-object payloads."""
    message = json.loads(line.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError(f"protocol messages are JSON objects, got {type(message)}")
    return message


# -- event constructors (server -> client) -----------------------------------


def accepted_event(request_id: int, cells: int) -> dict:
    return {"event": "accepted", "request_id": request_id, "cells": cells}


def rejected_event(request_id: int, reason: str, detail: str = "") -> dict:
    return {
        "event": "rejected",
        "request_id": request_id,
        "reason": reason,
        "detail": detail,
    }


def cell_event(
    request_id: int,
    workload: str,
    platform: str,
    status: str,
    *,
    source: str | None = None,
    payload: dict | None = None,
    reason: str | None = None,
    retry_after: float | None = None,
    error: str | None = None,
    elapsed: float | None = None,
) -> dict:
    event = {
        "event": "cell",
        "request_id": request_id,
        "workload": workload,
        "platform": platform,
        "status": status,
    }
    for key, value in (
        ("source", source),
        ("payload", payload),
        ("reason", reason),
        ("retry_after", retry_after),
        ("error", error),
        ("elapsed", elapsed),
    ):
        if value is not None:
            event[key] = value
    return event


def done_event(request_id: int, tallies: dict) -> dict:
    return {"event": "done", "request_id": request_id, **tallies}


def stats_event(payload: dict) -> dict:
    return {"event": "stats", "payload": payload}


def error_event(detail: str) -> dict:
    return {"event": "error", "detail": detail}
