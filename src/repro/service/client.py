"""Client side of the campaign service: async class + sync one-shots.

:class:`ServiceClient` speaks the newline-delimited JSON protocol of
:mod:`repro.service.protocol` over one connection and surfaces the
server's incremental cell events as they arrive (``on_event``
callback), so a CLI can print progress while a multi-cell submit is
still running.

The module-level :func:`submit` is a synchronous wrapper (one
connection, one operation, ``asyncio.run``) for callers without an
event loop: the ``repro submit`` CLI, tests, and scripts.

Connecting is fault-tolerant: an unreachable or *restarting* server is
retried under a bounded :class:`~repro.reliability.RetryPolicy` with
deterministic backoff, and a spent budget raises
:class:`ServiceConnectionError` naming the host, port, and attempt
count — never a raw ``ConnectionRefusedError`` with no context.
"""

from __future__ import annotations

import asyncio

from repro.reliability import CONNECT_RETRY_POLICY, RetryPolicy

from .protocol import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    SubmitRequest,
    decode_line,
    encode_line,
)


class ServiceConnectionError(ConnectionError):
    """Could not reach the campaign server after the retry budget.

    Subclasses ``ConnectionError`` so existing ``except ConnectionError``
    call sites keep working; the message names host, port, attempts,
    and the underlying failure.
    """


class ServiceClient:
    """One connection to a :class:`~repro.service.server.CampaignServer`.

    Use as an async context manager::

        async with ServiceClient(port=port) as client:
            events = await client.submit(SubmitRequest(...))

    ``retry`` governs :meth:`connect`: refused/unreachable attempts are
    retried with deterministic backoff (default
    :data:`~repro.reliability.CONNECT_RETRY_POLICY` — a restarting
    server gets a moment to come back) before
    :class:`ServiceConnectionError` is raised.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        retry: RetryPolicy | None = None,
    ):
        self.host = host
        self.port = port
        self.retry = retry if retry is not None else CONNECT_RETRY_POLICY
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> "ServiceClient":
        policy = self.retry
        last: Exception | None = None
        for attempt in range(policy.max_attempts):
            try:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
                return self
            except (ConnectionError, OSError) as exc:
                last = exc
                if attempt + 1 < policy.max_attempts:
                    await asyncio.sleep(policy.backoff(attempt))
        raise ServiceConnectionError(
            f"no campaign server reachable at {self.host}:{self.port} "
            f"after {policy.max_attempts} attempt(s): {last}"
        ) from last

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "ServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- wire primitives -----------------------------------------------------

    async def _send(self, message: dict) -> None:
        assert self._writer is not None, "connect() first"
        self._writer.write(encode_line(message))
        await self._writer.drain()

    async def _read_event(self) -> dict:
        assert self._reader is not None, "connect() first"
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_line(line)

    # -- operations ----------------------------------------------------------

    async def submit(
        self, request: SubmitRequest, on_event=None
    ) -> list[dict]:
        """Send one submit; collect its event stream until it completes.

        Returns every event of this request (``accepted``, the
        incremental ``cell`` events, ``done`` — or a single
        ``rejected``).  ``on_event`` is called with each event as it
        arrives, before the stream finishes — that is the progress
        hook.
        """
        await self._send(request.to_message())
        events: list[dict] = []
        while True:
            event = await self._read_event()
            events.append(event)
            if on_event is not None:
                on_event(event)
            if event.get("event") in ("done", "rejected", "error"):
                return events

    async def stats(self) -> dict:
        """The server's admission + store counters (``stats`` op payload)."""
        await self._send({"op": "stats"})
        event = await self._read_event()
        if event.get("event") != "stats":
            raise ValueError(f"expected a stats event, got {event}")
        return event["payload"]

    async def shutdown(self) -> None:
        """Ask the server to exit its serve loop (in-flight work finishes)."""
        await self._send({"op": "shutdown"})
        await self._read_event()  # the "stopping" acknowledgement


def cell_results(events: list[dict]) -> list[dict]:
    """The terminal ``cell`` events of a submit's event stream.

    One entry per cell — ``status`` is ``done`` (with ``source`` and
    ``payload``), ``rejected`` (with ``reason``), or ``error``;
    intermediate ``start`` events are dropped.
    """
    return [
        event
        for event in events
        if event.get("event") == "cell" and event.get("status") != "start"
    ]


# -- synchronous one-shots ----------------------------------------------------


def submit(
    request: SubmitRequest,
    *,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    on_event=None,
    retry: RetryPolicy | None = None,
) -> list[dict]:
    """Synchronous one-connection submit; returns the full event stream."""

    async def run() -> list[dict]:
        async with ServiceClient(host, port, retry=retry) as client:
            return await client.submit(request, on_event=on_event)

    return asyncio.run(run())
