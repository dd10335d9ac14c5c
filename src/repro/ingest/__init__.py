"""Priority-queued admission control in front of the authflow pipeline.

Interactive logins, SMS dispatch, batch resyncs and admin sweeps share
one back end; this package decides who is served first and who is shed:

* :mod:`repro.ingest.priority` — the five priority classes
  (``critical``/``interactive``/``sms``/``admin``/``batch``), per-class
  SLA windows, and the anti-starvation heap (age-based promotion capped
  below ``interactive`` so backfills can never starve humans);
* :mod:`repro.ingest.queue` — :class:`IngestQueue`, the bounded queue
  with backpressure shedding by class rank (batch dies before
  critical), retry-with-backoff on
  :class:`~repro.common.errors.TransientBackendError`, and
  depth/age/shed/SLA counters; plus :class:`QueuedBackend`, which
  fronts any :class:`~repro.common.results.TokenBackend` with a
  queue.

One service loop, run by whoever has a thread to spend: the waiter
itself (``Ticket.result()`` is caller-runs) or a
:class:`~repro.simcore.EventScheduler` event (``attach()``) — so live
deployments and million-user simulations exercise identical admission
logic.
"""

from repro.ingest.priority import (
    CLASS_RANK,
    DEFAULT_POLICIES,
    SHED_ORDER,
    ClassPolicy,
    PriorityClass,
    PriorityHeap,
    WorkItem,
)
from repro.ingest.queue import (
    IngestConfig,
    IngestQueue,
    QueuedBackend,
    classify_request,
)

__all__ = [
    "CLASS_RANK",
    "DEFAULT_POLICIES",
    "SHED_ORDER",
    "ClassPolicy",
    "PriorityClass",
    "PriorityHeap",
    "WorkItem",
    "IngestConfig",
    "IngestQueue",
    "QueuedBackend",
    "classify_request",
]
