"""Tuning-as-a-service: a concurrent campaign server over the tuner.

The paper's tuner is a one-shot offline optimizer; this package wraps
:func:`~repro.core.campaign.tune_scenario` in a long-lived asyncio
service (stdlib only) that accepts many concurrent tuning requests and
keeps the hardware saturated across them:

``repro.service.store``
    :class:`ResultStore` — the in-process EM-reference cache
    (:data:`repro.core.campaign._EM_CACHE`) promoted to an on-disk,
    cross-process JSON-lines store with a schema version and versioned
    invalidation, plus full served-scenario results keyed by the
    request cell (see ``docs/result-store.md``).
``repro.service.serde``
    Exact JSON round-trips for served cells (through :mod:`repro.codec`)
    and transfer-learning artifacts — served results stay bit-identical
    to direct :func:`tune_scenario` calls.
``repro.service.protocol``
    The newline-delimited-JSON wire protocol: submit/stats/shutdown
    requests and the per-cell progress event stream.
``repro.service.server``
    :class:`CampaignServer` — request admission with store dedup,
    coalescing of identical in-flight cells (followers await the
    leader's future), per-client budget quotas, and bounded-queue
    saturation (reject-with-retry-after), computing off-loop through
    the :mod:`repro.core.pool` executor plumbing.
``repro.service.client``
    :class:`ServiceClient` plus the sync helpers behind the CLI's
    ``repro serve`` / ``repro submit``.

See ``docs/architecture.md`` for the request lifecycle.
"""

from .client import ServiceClient, submit
from .protocol import DEFAULT_HOST, DEFAULT_PORT, SubmitRequest
from .server import CampaignServer, ServiceStats
from .store import STORE_SCHEMA_VERSION, CellKey, ResultStore

__all__ = [
    "CampaignServer",
    "CellKey",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ResultStore",
    "STORE_SCHEMA_VERSION",
    "ServiceClient",
    "ServiceStats",
    "SubmitRequest",
    "submit",
]
