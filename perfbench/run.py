"""End-to-end tuning benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sam-matrix --seed 1 --seconds 10 --trace 0

Runs one workload (see ``workloads.py`` and ``NOTES.md``) against the
package in ``src/`` for ``--seconds`` of closed-loop operations after
its set-up, checks every operation's output, and prints as its last
stdout line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` reports the per-layer metrics, taken
from timing wrappers around each layer's public functions, and writes a
Chrome trace under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


class RssSampler:
    """Peak resident set size over this process and all its descendants.

    A daemon thread polls ``/proc`` for the process tree and keeps the
    largest ``VmHWM`` (peak RSS) seen for any one process, so pool
    workers and the server subprocess count while they are alive.
    """

    def __init__(self, interval: float = 0.25) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def sample(self) -> None:
        parents: dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue
            parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
        tree = {os.getpid()}
        grew = True
        while grew:
            grew = False
            for pid, ppid in parents.items():
                if ppid in tree and pid not in tree:
                    tree.add(pid)
                    grew = True
        for pid in tree:
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            self.peak_kb = max(self.peak_kb, int(line.split()[1]))
                            break
            except OSError:
                continue


def import_program():
    """Put the checkout's ``src/`` first on the path and import ``repro``.

    Fails unless the imported package really is the checkout's: the
    benchmark must never measure some other installed copy.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")
    return repro


def use_private_tmp() -> None:
    """Keep temporary files (pool sockets included) inside the checkout.

    Skipped when the checkout path is so long that a socket under it
    would pass the 108-byte ``AF_UNIX`` limit.
    """
    tmp = ROOT / ".perfbench_out" / "tmp"
    if len(str(tmp)) > 60:
        return
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def stop_pool_helpers() -> None:
    """Stop multiprocessing's forkserver and resource tracker; wait for both.

    Pools start them on first use and leave them to exit some time after
    this process does; stopping them here means no process the run
    started outlives it.
    """
    for name, attr in (
        ("multiprocessing.forkserver", "_forkserver"),
        ("multiprocessing.resource_tracker", "_resource_tracker"),
    ):
        helper = getattr(sys.modules.get(name), attr, None)
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def emit(result: dict, trace: bool) -> None:
    """Print the sample table and the final result line."""
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    values = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    metrics = {}
    for m in declared:
        value, samples, source = values[m["name"]]
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:>14.6g} {m['unit']:<6} n={samples:<6} {source}")
    for line in result.get("notes", ()):
        print(line)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and result["correct"],
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )


def main(argv=None) -> int:
    names = [w["name"] for w in BENCH["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    repro = import_program()
    use_private_tmp()
    import workloads

    if workloads.LOAD[args.workload] > nproc():
        raise SystemExit(
            f"error: {args.workload} needs {workloads.LOAD[args.workload]} "
            f"processes/connections but only {nproc()} cores are available"
        )
    with RssSampler() as rss:
        result = workloads.RUNNERS[args.workload](
            workloads.Context(
                repro=repro,
                root=ROOT,
                seed=args.seed,
                seconds=args.seconds,
                trace=bool(args.trace),
                started=started,
            )
        )
    stop_pool_helpers()
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = (rss.peak_mb, 1, "max VmHWM of process tree")
    emit(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
