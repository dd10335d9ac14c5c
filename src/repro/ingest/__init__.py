"""Priority-queued admission control in front of the authflow pipeline.

Interactive logins, SMS dispatch and batch resyncs share one back end;
this package decides who is served first and who is shed:

* :mod:`repro.ingest.priority` — the three priority classes
  (``interactive``/``sms``/``batch``), their ranks, SLA windows and
  promotion windows in one table, and the anti-starvation heap (age-based
  promotion, capped so a ``batch`` backfill never overtakes an
  ``interactive`` login);
* :mod:`repro.ingest.queue` — :class:`IngestQueue`, the bounded queue
  with backpressure shedding by class rank (batch dies before
  interactive), retry-with-backoff on
  :class:`~repro.common.errors.TransientBackendError`, and
  depth/age/shed/SLA counters.  The queue is itself a
  :class:`~repro.common.results.TokenBackend`: ``validate`` is the RADIUS
  farm's synchronous call, ``submit`` the one deferred door.

One service loop, run by whoever has a thread to spend: the waiter
itself (``Ticket.result()`` is caller-runs) or a
:class:`~repro.simcore.EventScheduler` event (``attach()``) — so live
deployments and million-user simulations exercise identical admission
logic.
"""

from repro.ingest.priority import (
    CLASS_RANK,
    CLASSES,
    SHED_ORDER,
    PriorityClass,
    PriorityHeap,
    WorkItem,
)
from repro.ingest.queue import (
    IngestConfig,
    IngestQueue,
    classify_request,
)

__all__ = [
    "CLASS_RANK",
    "CLASSES",
    "SHED_ORDER",
    "PriorityClass",
    "PriorityHeap",
    "WorkItem",
    "IngestConfig",
    "IngestQueue",
    "classify_request",
]
