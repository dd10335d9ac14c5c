"""The priority ingestion queue fronting the authflow pipeline.

:class:`IngestQueue` is the deferred seam into the back end: it sits
between submitters (:class:`QueuedBackend` for each RADIUS validate,
resync backfills, admin sweeps) and a runner — any
``fn(*request) -> ValidateResult``, typically ``OTPServer.validate``.
``submit`` / ``submit_item`` / ``submit_many`` return one live
:class:`~repro.common.results.Ticket` per request, resolved when the
item is serviced.

Admission has one shed path, **backpressure**: at ``max_depth``, an
arrival outranking the worst queued class evicts one item from that
class (its ticket resolves REJECT with a ``shed:`` reason); otherwise
the arrival itself is rejected.  Eviction goes by class rank, so an
overloaded queue sheds ``batch`` before ``critical``.

There is one service loop — the best ready item is popped under the
lock, ``_service`` runs it outside — and whoever has a thread to spend
runs it:

* ``Ticket.result()`` is **caller-runs**: every waiter services ready
  items until its own ticket is done, so single call sites need no
  ceremony, concurrent ones cannot strand each other, and a
  ``submit_many`` burst drains in parallel on as many threads as wait
  on it;
* ``attach(scheduler)`` — a repeating ``pump`` event on a
  :class:`~repro.simcore.EventScheduler`, for virtual-time simulation
  (drain rate = ``items_per_pump / interval``).

Transient failures (:class:`~repro.common.errors.TransientBackendError`)
requeue with exponential backoff (``RETRY_BASE_DELAY`` doubling per
attempt up to ``RETRY_MAX_DELAY``) up to ``MAX_RETRIES`` times; any
other exception resolves the ticket REJECT rather than reaching the
thread that happened to service it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.clock import Clock, WallClock
from repro.common.errors import TransientBackendError
from repro.common.results import Ticket, ValidateResult, ValidateStatus
from repro.ingest.priority import (
    CLASS_RANK,
    PriorityClass,
    PriorityHeap,
    WorkItem,
)
from repro.telemetry import resolve_registry

__all__ = ["IngestConfig", "IngestQueue", "QueuedBackend", "classify_request"]

#: Why an item is shed: refused at a closed queue, or for want of room.
SHED_CAUSES = ("closed", "backpressure")
#: Transient-failure requeues per item before its ticket resolves REJECT,
#: and the backoff before each: doubling from the base, capped.
MAX_RETRIES = 3
RETRY_BASE_DELAY = 0.5
RETRY_MAX_DELAY = 30.0


def classify_request(request: Sequence) -> PriorityClass:
    """Default classifier: a null code is the SMS challenge trigger,
    anything else is a human waiting at a prompt."""
    code = request[1] if len(request) > 1 else None
    return PriorityClass.SMS if not code else PriorityClass.INTERACTIVE


@dataclass(frozen=True)
class IngestConfig:
    """Shape of one admission queue.

    ``service_cost_seconds`` charges the clock per serviced item — zero
    for live threads (the runner's real work is the cost), a small value
    under virtual time so queue delay becomes measurable in simulated
    seconds.
    """

    max_depth: int = 1024
    service_cost_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.service_cost_seconds < 0:
            raise ValueError("service_cost_seconds must be >= 0")


@dataclass
class _ClassStats:
    """Mutable per-class counters, guarded by the queue lock."""

    submitted: int = 0
    completed: int = 0
    shed: int = 0
    rejected: int = 0
    retries: int = 0
    errors: int = 0
    sla_hits: int = 0
    sla_misses: int = 0
    wait_total: float = 0.0
    wait_max: float = 0.0

    def observe_wait(self, waited: float, sla: float) -> None:
        self.wait_total += waited
        self.wait_max = max(self.wait_max, waited)
        if waited <= sla:
            self.sla_hits += 1
        else:
            self.sla_misses += 1


class IngestQueue:
    """Priority-queued admission control in front of a validation runner."""

    def __init__(
        self,
        runner: Callable[..., ValidateResult],
        config: Optional[IngestConfig] = None,
        clock: Optional[Clock] = None,
        telemetry=None,
    ) -> None:
        self._runner = runner
        self.config = config or IngestConfig()
        self._clock = clock or WallClock()
        self._lock = threading.Lock()
        self._heap = PriorityHeap()
        self._seq = 0
        self._stats: Dict[PriorityClass, _ClassStats] = {
            cls: _ClassStats() for cls in PriorityClass
        }
        self._closed = False

        telemetry = resolve_registry(telemetry)
        shed = telemetry.counter("ingest_shed_total", "items shed by class and cause")
        self._m_shed = {
            (cls, cause): shed.labels(priority=cls.value, cause=cause)
            for cls in PriorityClass
            for cause in SHED_CAUSES
        }
        wait = telemetry.histogram(
            "ingest_wait_seconds", "queue wait from admission to service"
        )
        self._m_wait = {cls: wait.labels(priority=cls.value) for cls in PriorityClass}
        # Telemetry off: a serviced item makes no histogram call at all.
        self._timed = telemetry.enabled

    # -- admission -----------------------------------------------------------

    def submit(self, request: Sequence) -> Ticket:
        """Classify one request by shape and enqueue it."""
        return self.submit_item(request)

    def submit_many(
        self,
        requests: Sequence[Sequence],
        priority: Optional[PriorityClass] = None,
    ) -> List[Ticket]:
        """One live ticket per request, input order preserved."""
        return [self.submit_item(tuple(r), priority) for r in requests]

    def submit_item(
        self, request: Tuple, priority: Optional[PriorityClass] = None
    ) -> Ticket:
        """Enqueue with an explicit class (``None`` = classify by shape)."""
        if type(request) is not tuple:
            request = tuple(request)
        cls = priority or classify_request(request)
        ticket = Ticket(drain=self._drain_for_ticket)
        with self._lock:
            if self._closed:
                self._resolve_shed(ticket, cls, "queue closed", "closed", arrival=True)
                return ticket
            if len(self._heap) >= self.config.max_depth and not self._evict_for(cls):
                self._resolve_shed(
                    ticket, cls, f"queue full ({cls.value} rejected)", "backpressure",
                    arrival=True,
                )
                return ticket
            self._seq += 1
            item = WorkItem(
                seq=self._seq,
                priority=cls,
                request=request,
                ticket=ticket,
                enqueued_at=self._clock.now(),
            )
            self._heap.push(item)
            self._stats[cls].submitted += 1
        return ticket

    def _evict_for(self, incoming: PriorityClass) -> bool:
        """Backpressure: make room by shedding strictly worse-ranked work."""
        victim_cls = self._heap.shed_candidate()
        if victim_cls is None or CLASS_RANK[victim_cls] <= CLASS_RANK[incoming]:
            return False
        victim = self._heap.shed()
        assert victim is not None
        self._resolve_shed(
            victim.ticket,
            victim.priority,
            f"evicted for {incoming.value} under backpressure",
            "backpressure",
        )
        return True

    def _resolve_shed(
        self,
        ticket: Ticket,
        cls: PriorityClass,
        detail: str,
        cause: str,
        arrival: bool = False,
    ) -> None:
        """Fail one ticket with a shed reason.  ``arrival`` marks items
        refused at the door (they still count as submitted traffic so
        shed-rate math has a denominator); evicted items were already
        counted when admitted."""
        stats = self._stats[cls]
        stats.shed += 1
        if arrival:
            stats.submitted += 1
            if cause == "backpressure":
                stats.rejected += 1
        self._m_shed[cls, cause].inc()
        ticket.resolve(ValidateResult(ValidateStatus.REJECT, reason=f"shed: {detail}"))

    # -- service -------------------------------------------------------------

    def _service(self, item: WorkItem) -> None:
        """Run one item to resolution (or back into the queue on backoff).

        Called outside the lock — the runner does real validation work.
        """
        now = self._clock.now()
        policy = self._heap.policy_for(item.priority)
        waited = max(0.0, now - item.enqueued_at)
        stats = self._stats[item.priority]
        if self._timed:
            self._m_wait[item.priority].observe(waited)
        if self.config.service_cost_seconds > 0:
            self._clock.sleep(self.config.service_cost_seconds)
        errored = False
        try:
            result = self._runner(*item.request)
        except TransientBackendError as exc:
            item.attempts += 1
            if item.attempts <= MAX_RETRIES:
                delay = min(
                    RETRY_MAX_DELAY, RETRY_BASE_DELAY * (2 ** (item.attempts - 1))
                )
                with self._lock:
                    stats.observe_wait(waited, policy.sla_seconds)
                    item.ready_at = self._clock.now() + delay
                    self._heap.push(item)
                    stats.retries += 1
                return
            result = ValidateResult(
                ValidateStatus.REJECT,
                reason=(
                    f"backend unavailable after {item.attempts} attempts: {exc}"
                ),
            )
        except Exception as exc:  # noqa: BLE001 — a runner bug fails its own ticket only
            errored = True
            result = ValidateResult(
                ValidateStatus.REJECT, reason=f"backend error: {exc}"
            )
        with self._lock:
            stats.observe_wait(waited, policy.sla_seconds)
            stats.completed += 1
            if errored:
                stats.errors += 1
        item.ticket.resolve(result)

    def pump(self, max_items: Optional[int] = None) -> int:
        """Service ready items on the caller's thread; the service loop.

        ``max_items`` bounds one pump so a scheduled drain has a rate
        (``items_per_pump / interval``) instead of finishing a 10k
        backfill in zero simulated seconds.
        """
        serviced = 0
        while max_items is None or serviced < max_items:
            with self._lock:
                item = self._heap.pop(self._clock.now())
            if item is None:
                break
            self._service(item)
            serviced += 1
        return serviced

    def _drain_for_ticket(self, ticket: Ticket) -> None:
        """Caller-runs drive for ``Ticket.result()``.

        The waiter pumps ready items — its own or anyone's, in service
        order — until its ticket resolves, advancing past retry backoffs
        on the queue's own clock (virtual clocks jump; a wall clock really
        waits, which is what a backoff means in live mode).  It returns
        with the ticket unresolved only when the heap is empty because
        another thread holds the item.  Same-user work is serialised by
        the pipeline's striped locks and the heap by the queue lock, so
        any number of waiters may pump at once.
        """
        while not ticket.done():
            if self.pump(max_items=1):
                continue
            with self._lock:
                next_ready = self._heap.next_ready()
            if next_ready is None:
                return
            delay = next_ready - self._clock.now()
            if delay > 0:
                self._clock.sleep(delay)

    # -- drives --------------------------------------------------------------

    def attach(self, scheduler, interval: float = 0.5, items_per_pump: int = 50):
        """Drive the queue from a :class:`~repro.simcore.EventScheduler`.

        Returns the repeating event's handle so callers can cancel.  The
        drain rate is deliberate — ``items_per_pump / interval`` items per
        simulated second — because a backfill that drains in zero virtual
        time proves nothing about SLA isolation.
        """
        if interval <= 0 or items_per_pump < 1:
            raise ValueError("need interval > 0 and items_per_pump >= 1")
        return scheduler.schedule_repeating(
            interval, lambda: self.pump(max_items=items_per_pump)
        )

    def close(self) -> None:
        """Refuse new arrivals and fail everything still queued (shed: closed)."""
        with self._lock:
            self._closed = True
            for item in self._heap.drain():
                self._resolve_shed(item.ticket, item.priority, "queue closed", "closed")

    # -- observability -------------------------------------------------------

    def depth(self) -> int:
        with self._lock:
            return len(self._heap)

    def snapshot(self) -> Dict[str, object]:
        """Operator view: per-class depth/age/SLA plus queue-wide totals.

        The ``queue`` section of ``OTPServer.status()``: plain
        JSON-serializable scalars, stable keys.
        """
        with self._lock:
            now = self._clock.now()
            classes: Dict[str, object] = {}
            totals = _ClassStats()
            for cls in self._heap.classes():
                s = self._stats[cls]
                serviced = s.sla_hits + s.sla_misses
                classes[cls.value] = {
                    "rank": CLASS_RANK[cls],
                    "depth": self._heap.depth(cls),
                    "oldest_age_seconds": round(self._heap.oldest_age(cls, now), 6),
                    "sla_seconds": self._heap.policy_for(cls).sla_seconds,
                    "submitted": s.submitted,
                    "completed": s.completed,
                    "shed": s.shed,
                    "rejected": s.rejected,
                    "retries": s.retries,
                    "errors": s.errors,
                    "sla_hits": s.sla_hits,
                    "sla_misses": s.sla_misses,
                    "sla_hit_rate": (
                        round(s.sla_hits / serviced, 6) if serviced else None
                    ),
                    "mean_wait_seconds": (
                        round(s.wait_total / serviced, 6) if serviced else None
                    ),
                    "max_wait_seconds": round(s.wait_max, 6),
                }
                totals.submitted += s.submitted
                totals.completed += s.completed
                totals.shed += s.shed
                totals.rejected += s.rejected
                totals.retries += s.retries
                totals.errors += s.errors
                totals.sla_hits += s.sla_hits
                totals.sla_misses += s.sla_misses
            serviced = totals.sla_hits + totals.sla_misses
            return {
                "configured": True,
                "max_depth": self.config.max_depth,
                "depth": len(self._heap),
                "classes": classes,
                "submitted_total": totals.submitted,
                "completed_total": totals.completed,
                "shed_total": totals.shed,
                "rejected_total": totals.rejected,
                "retry_total": totals.retries,
                "error_total": totals.errors,
                "sla_hit_rate": (
                    round(totals.sla_hits / serviced, 6) if serviced else None
                ),
            }


class QueuedBackend:
    """A :class:`TokenBackend` whose ``validate`` goes through an
    :class:`IngestQueue` (the queue's runner is the real backend's).

    ``validate`` (the synchronous seam RADIUS servers call per datagram)
    submits and waits — with no worker threads the ticket is caller-runs,
    so a single login still resolves in the same event under virtual
    time and concurrent logins each drain for themselves.  Deferred work
    goes to ``.queue`` directly; the administrative surface (enrolment,
    pairing queries, audit) stays on the backend itself.
    """

    def __init__(self, queue: IngestQueue) -> None:
        self.queue = queue

    def validate(self, user_id, code, source=None) -> ValidateResult:
        request = (user_id, code) if source is None else (user_id, code, source)
        return self.queue.submit(request).result()
