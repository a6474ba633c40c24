"""JSON forms of the served result types.

The service's whole value proposition rests on one invariant: a result
served from the store (or over the wire) is **bit-identical** to the
same computation run directly.  Records — configurations, objective
values, EM references, campaign reports with their portfolio ledgers,
workload specs — go through the field-driven :mod:`repro.codec`
(``encode(obj)`` / ``decode(cls, data)``), which rebuilds tuples and
frozen dataclasses from their annotations, so plain dataclass equality
(``==``) after a round trip is exact-value equality.

This module keeps the two scenario entry points the store and the
server call (named layers of the benchmark tracer) and transfer
learning's array artifacts — measured training grids and fitted model
pairs — which travel as base64-wrapped compressed ``.npz`` blobs
(binary float round-trips, hence bit-identical predictions).
"""

from __future__ import annotations

import base64
import io

import numpy as np

from ..codec import decode, encode
from ..core.campaign import ScenarioReport


def encode_scenario(report: ScenarioReport) -> dict:
    """JSON-able form of one served (workload, platform) cell."""
    return encode(report)


def decode_scenario(data: dict) -> ScenarioReport:
    return decode(ScenarioReport, data)


# -- transfer-learning artifacts (training grids, model pairs) ----------------


def _encode_npz(**arrays: np.ndarray) -> str:
    """Base64 of a compressed ``.npz`` holding ``arrays``.

    Binary transport, not textual floats: the arrays round-trip
    byte-exact, which is what makes stored models predict
    bit-identically to freshly trained ones.
    """
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    return base64.b64encode(buf.getvalue()).decode("ascii")


def _decode_npz(blob: str) -> dict[str, np.ndarray]:
    with np.load(io.BytesIO(base64.b64decode(blob.encode("ascii")))) as data:
        return {name: data[name] for name in data.files}


def encode_training_data(data) -> dict:
    """JSON-able form of a measured training grid
    (:class:`~repro.core.training.TrainingData`)."""
    return {
        "arrays": _encode_npz(
            host_X=data.host.X,
            host_y=data.host.y,
            device_X=data.device.X,
            device_y=data.device.y,
        )
    }


def decode_training_data(payload: dict):
    from ..core.training import TrainingData
    from ..ml.dataset import DEVICE_FEATURE_NAMES, HOST_FEATURE_NAMES, Dataset

    arrays = _decode_npz(payload["arrays"])
    return TrainingData(
        host=Dataset(arrays["host_X"], arrays["host_y"], HOST_FEATURE_NAMES),
        device=Dataset(arrays["device_X"], arrays["device_y"], DEVICE_FEATURE_NAMES),
    )


def encode_model_pair(host_model, device_model) -> dict:
    """JSON-able form of a fitted ``(host, device)`` predictor pair.

    Each side is the exact ``.npz`` byte stream of
    :func:`repro.ml.io.save_model`, base64-wrapped — one serializer for
    files and store records.
    """
    from ..ml.io import save_model

    blobs = {}
    for side, model in (("host", host_model), ("device", device_model)):
        buf = io.BytesIO()
        save_model(buf, model)
        blobs[side] = base64.b64encode(buf.getvalue()).decode("ascii")
    return blobs


def decode_model_pair(payload: dict) -> tuple:
    from ..ml.io import load_model

    return tuple(
        load_model(io.BytesIO(base64.b64decode(payload[side].encode("ascii"))))
        for side in ("host", "device")
    )
