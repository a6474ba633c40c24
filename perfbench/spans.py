"""Per-layer timing from outside the program.

:class:`Tracer` wraps the public functions of each layer (see
:data:`LAYERS`) in place, so every caller — including modules that
imported the function by name — goes through the wrapper.  A wrapper
records one span (name, start, end, parent, self time, count) per
outermost call of its layer; a call that re-enters the same layer
(``evaluate`` calling ``evaluate_batch``) is folded into the outer
span.  Spans live in memory and are written out once, as Chrome Trace
Event JSON, when the run ends.

Only this process is traced: pool workers started by forkserver or
spawn import the package afresh and run unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import sys
import threading
import time


def _rows(index):
    """Count = length of the positional argument at ``index``."""
    return lambda args, kwargs, result: len(args[index])


def _one(args, kwargs, result):
    return 1


def _grid_rows(args, kwargs, result):
    return result.n_experiments


def _job_bytes(args, kwargs, result):
    """Pickled size of the first job times the job count.

    Jobs of one fan-out share the same cache snapshot, which dominates
    their size, so one pickle estimates them all at 1/n of the cost.
    """
    jobs = list(args[1] if len(args) > 1 else kwargs["jobs"])
    return len(pickle.dumps(jobs[0])) * len(jobs) if jobs else 0


#: (span name, module, attribute path, count function or None).  One
#: span name may cover several entry points of the same layer.
LAYERS: tuple[tuple[str, str, str, object], ...] = (
    ("ml.tree.fit", "repro.ml.tree", "RegressionTree.fit", None),
    ("ml.boosting.fit", "repro.ml.boosting", "BoostedDecisionTreeRegressor.fit", None),
    (
        "ml.boosting.continue_fit",
        "repro.ml.boosting",
        "BoostedDecisionTreeRegressor.continue_fit",
        None,
    ),
    ("ml.boosting.predict", "repro.ml.boosting", "BoostedDecisionTreeRegressor.predict", _rows(1)),
    ("core.training.grid", "repro.core.training", "generate_training_data", _grid_rows),
    ("core.training.train", "repro.core.training", "train_models", None),
    ("ml.transfer.cell_models", "repro.ml.transfer", "cell_models", None),
    ("core.evaluators.predict", "repro.core.evaluators", "MLEvaluator.evaluate", _one),
    ("core.evaluators.predict", "repro.core.evaluators", "MLEvaluator.evaluate_batch", _rows(1)),
    ("core.evaluators.measure", "repro.core.evaluators", "MeasurementEvaluator.evaluate", _one),
    (
        "core.evaluators.measure",
        "repro.core.evaluators",
        "MeasurementEvaluator.evaluate_batch",
        _rows(1),
    ),
    ("search.RS.run", "repro.search", "RandomSearch.run", None),
    ("search.HC.run", "repro.search", "HillClimbing.run", None),
    ("search.TABU.run", "repro.search", "TabuSearch.run", None),
    ("search.GA.run", "repro.search", "GeneticAlgorithm.run", None),
    ("search.ACO.run", "repro.search", "AntColony.run", None),
    ("core.portfolio.race", "repro.core.portfolio", "run_portfolio", None),
    ("core.engine.evaluate", "repro.core.engine", "EvaluationEngine.evaluate", None),
    ("core.engine.evaluate", "repro.core.engine", "EvaluationEngine.evaluate_batch", None),
    ("core.annealing.run", "repro.core.annealing", "SimulatedAnnealing.run", None),
    ("core.methods.run", "repro.core.methods", "run_method", None),
    ("machines.simulator.measure", "repro.machines.simulator", "PlatformSimulator.measure_host", None),
    ("machines.simulator.measure", "repro.machines.simulator", "PlatformSimulator.measure_device", None),
    (
        "machines.simulator.measure",
        "repro.machines.simulator",
        "PlatformSimulator.measure_host_columns",
        None,
    ),
    (
        "machines.simulator.measure",
        "repro.machines.simulator",
        "PlatformSimulator.measure_device_columns",
        None,
    ),
    (
        "machines.simulator.measure",
        "repro.machines.simulator",
        "PlatformSimulator.measure_host_batch",
        None,
    ),
    (
        "machines.simulator.measure",
        "repro.machines.simulator",
        "PlatformSimulator.measure_device_batch",
        None,
    ),
    ("core.campaign.cell", "repro.core.campaign", "tune_platform", None),
    ("core.enumeration.walk", "repro.core.enumeration", "enumerate_best", None),
    ("core.enumeration.walk", "repro.core.enumeration", "enumerate_best_separable", None),
    ("core.enumeration.walk", "repro.core.enumeration", "enumerate_best_separable_ml", None),
    ("core.pool.run_tasks", "repro.core.pool", "run_tasks", _job_bytes),
    ("service.store.put_em", "repro.service.store", "ResultStore.put_em", None),
    ("service.store.get", "repro.service.store", "ResultStore.get_scenario", None),
    ("service.serde.encode", "repro.service.serde", "encode_scenario", None),
    ("service.serde.decode", "repro.service.serde", "decode_scenario", None),
)


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``enabled`` switches recording on and off without unwrapping, so a
    run can alternate traced and untraced operations; a disabled
    wrapper costs one attribute test per call.
    """

    def __init__(self) -> None:
        self.enabled = False
        #: (id, parent id, name, start, end, self seconds, count, thread id)
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frames = tracer._frames()
            if frames and any(frame[1] == name for frame in frames):
                return fn(*args, **kwargs)
            parent = frames[-1][0] if frames else 0
            frame = [next(tracer._ids), name, 0.0]  # id, name, child seconds
            frames.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                frames.pop()
                if frames:
                    frames[-1][2] += end - start
            n = 1 if count is None else count(args, kwargs, result)
            tracer.spans.append(
                (frame[0], parent, name, start, end, end - start - frame[2], n,
                 threading.get_ident())
            )
            return result

        return traced

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point where its callers look it up."""
        for name, module_name, path, count in LAYERS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                original = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(name, original, count), original)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, count)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper, original)

    def _set(self, owner, attr: str, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- export --------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the raw spans (for another process to merge) as JSON."""
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans}, fh)


#: Most spans one trace file holds; beyond it the shortest are left out
#: (the per-layer metrics always use every span).
MAX_EXPORTED_SPANS = 50_000


def write_chrome_trace(path: str, groups: list[tuple[int, list]]) -> None:
    """Write spans of one or more processes as Chrome Trace Event JSON.

    ``groups`` pairs a process id with its spans; the file opens in
    Perfetto or ``chrome://tracing``.  Each event carries its span id
    and parent id in ``args``.
    """
    tagged = [(pid, span) for pid, spans in groups for span in spans]
    if len(tagged) > MAX_EXPORTED_SPANS:
        tagged.sort(key=lambda item: item[1][3] - item[1][4])
        del tagged[MAX_EXPORTED_SPANS:]
    events = [
        {
            "name": name,
            "ph": "X",
            "ts": round(start * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": pid,
            "tid": tid,
            "args": {"id": sid, "parent": parent, "self_us": round(self_s * 1e6, 3), "n": n},
        }
        for pid, (sid, parent, name, start, end, self_s, n, tid) in tagged
    ]
    events.sort(key=lambda e: e["ts"])
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def layer_totals(spans, keep=lambda span: True) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self seconds and summed counts."""
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        if not keep(span):
            continue
        name, self_s, n = span[2], span[5], span[6]
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "n": 0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["n"] += n
    return totals
