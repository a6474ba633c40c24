"""Helpers shared by the tests and the pinned goldens.

:class:`Recording` is the one ``(config, value)`` recording objective
and :func:`first_seen` the one first-occurrence filter, so the searcher
tests and ``tools/regen_goldens.py`` hash the same candidate sequences.
:func:`model_digest` is the one fitted-ensemble digest behind
``GOLDEN_EMIL_MODELS_SHA256`` and the model goldens.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: The flat arrays of a fitted :class:`~repro.ml.tree.RegressionTree`.
TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


class Recording:
    """An objective that logs every ``(config, value)`` it scores, in order.

    It forwards ``evaluate_batch`` when the wrapped objective has one, so
    a batched engine keeps its vectorized path.
    """

    def __init__(self, objective) -> None:
        self.objective = objective
        self.seen: list[tuple] = []
        if hasattr(objective, "evaluate_batch"):
            self.evaluate_batch = self._evaluate_batch

    def __call__(self, config):
        value = self.objective(config)
        self.seen.append((config, value))
        return value

    def _evaluate_batch(self, configs):
        values = self.objective.evaluate_batch(configs)
        self.seen.extend(zip(configs, values))
        return values


def first_seen(seen) -> list[tuple]:
    """``seen`` without repeated configurations: what a cache passes through."""
    first: dict = {}
    for config, value in seen:
        first.setdefault(config, value)
    return list(first.items())


def model_digest(models) -> str:
    """sha256 over every tree's flat arrays, base prediction and losses."""
    h = hashlib.sha256()
    for model in models:
        for tree in model.trees_:
            for name in TREE_ARRAYS:
                h.update(getattr(tree, name).tobytes())
        h.update(np.float64(model.base_prediction_).tobytes())
        h.update(np.asarray(model.train_loss_, dtype=np.float64).tobytes())
    return h.hexdigest()
