#!/usr/bin/env python
"""Tuning as a service: dedup, coalescing, and the durable store.

Starts an in-process campaign server on an ephemeral port, then plays
the three request patterns a shared tuner sees in practice:

1. Two clients concurrently submit *overlapping* batches — the shared
   cells are evaluated once (one leader, the rest coalesce onto its
   future) and every client receives an identical payload.
2. A repeat submit arrives after the work is done — answered straight
   from the durable JSON-lines result store, zero computation.
3. The server "restarts" (new server + fresh store instance over the
   same file) — previously served cells still cost nothing.

Run:  python examples/campaign_server.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro.service import (
    CampaignServer,
    ResultStore,
    ServiceClient,
    SubmitRequest,
)
from repro.service.client import cell_results

SIZE_MB = 600.0
ITERS = 120

#: Two clients with overlapping needs: both want short-read@emil, each
#: also wants one cell of their own.
ALICE = SubmitRequest(
    client="alice",
    workloads=("short-read", "dense-motif"),
    platforms=("emil",),
    method="SAM",
    size_mb=SIZE_MB,
    iterations=ITERS,
)
BOB = SubmitRequest(
    client="bob",
    workloads=("short-read", "tiny-alphabet"),
    platforms=("emil",),
    method="SAM",
    size_mb=SIZE_MB,
    iterations=ITERS,
)


def show(name: str, events: list[dict]) -> dict[str, dict]:
    """Print one submit's terminal cell events, sorted by cell label
    (cells finish in any order); return them by label."""
    cells = {f"{cell['workload']}@{cell['platform']}": cell for cell in cell_results(events)}
    for label in sorted(cells):
        print(f"  {name:<6} {label:<22} <- {cells[label]['source']}")
    return cells


async def overlapping_clients(port: int) -> None:
    print("two clients, overlapping batches, submitted concurrently:")

    async def one(request: SubmitRequest) -> list[dict]:
        async with ServiceClient(port=port) as client:
            return await client.submit(request)

    # Either client may finish first: print after both, in a fixed order.
    alice_events, bob_events = await asyncio.gather(one(ALICE), one(BOB))
    alice, bob = show("alice", alice_events), show("bob", bob_events)
    shared = "short-read@Emil"
    sources = {alice[shared]["source"], bob[shared]["source"]}
    assert sources <= {"evaluate", "coalesced", "store"}
    assert alice[shared]["payload"] == bob[shared]["payload"], (
        "shared cell must serve identical payloads"
    )
    print(f"  -> shared cell served via {sorted(sources)}, payloads identical")


async def repeat_submit(port: int) -> None:
    print("\nalice resubmits her whole batch:")
    async with ServiceClient(port=port) as client:
        cells = show("alice", await client.submit(ALICE))
        stats = await client.stats()
    assert all(cell["source"] == "store" for cell in cells.values())
    server_stats = stats["server"]
    print(
        f"  -> all from the store. totals: "
        f"evaluated={server_stats['evaluated']}, "
        f"coalesced={server_stats['coalesced']}, "
        f"store_hits={server_stats['store_hits']}"
    )


async def demo(store_path: Path) -> None:
    server = await CampaignServer(ResultStore(store_path), port=0).start()
    try:
        await overlapping_clients(server.port)
        await repeat_submit(server.port)
    finally:
        await server.stop()

    # A restarted server over the same store file keeps every answer.
    print("\nserver restarts; bob resubmits:")
    restarted = await CampaignServer(ResultStore(store_path), port=0).start()
    try:
        async with ServiceClient(port=restarted.port) as client:
            cells = show("bob", await client.submit(BOB))
        assert all(cell["source"] == "store" for cell in cells.values())
        print("  -> restart cost nothing: the store file is the memory")
    finally:
        await restarted.stop()

    print(f"\nstore file: {store_path.name}")
    for line in ResultStore(store_path).describe_entries():
        print(f"  {line}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        asyncio.run(demo(Path(tmp) / "results.jsonl"))


if __name__ == "__main__":
    main()
