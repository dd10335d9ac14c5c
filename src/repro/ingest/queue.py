"""The priority ingestion queue: the back end the RADIUS farm calls.

:class:`IngestQueue` sits between its callers and a runner — any
``fn(*request) -> ValidateResult``, typically ``OTPServer.validate``.  It
has two doors:

* ``validate(user_id, code, source=None)`` — the back end's one
  synchronous call, what a RADIUS server makes per datagram;
* ``submit(request, priority=None)`` — the one deferred door (resync
  backfills): one live :class:`~repro.common.results.Ticket` per request,
  resolved when the item is serviced.

Admission has one shed path, **backpressure**: at ``max_depth``, an
arrival outranking the worst queued class evicts one item from that
class (its ticket resolves REJECT with a ``shed:`` reason); otherwise
the arrival itself is rejected.  Eviction goes by class rank, so an
overloaded queue sheds ``batch`` before ``interactive``.

There is one service loop — the best ready item is popped under the
lock, ``_service`` runs it outside — and whoever has a thread to spend
runs it:

* ``Ticket.result()`` is **caller-runs**: every waiter services ready
  items until its own ticket is done, so single call sites need no
  ceremony, concurrent ones cannot strand each other, and a burst of
  submits drains in parallel on as many threads as wait on it;
* ``attach(scheduler)`` — a repeating ``pump`` event on a
  :class:`~repro.simcore.EventScheduler`, for virtual-time simulation
  (drain rate = ``items_per_pump / interval``).

``validate`` has one rule for an **idle arrival**: with nothing queued —
nothing ready and nothing backing off — a pushed item would be the next
one popped, by its own waiter, so it runs on the caller's thread instead:
no ticket, no work item, no heap round trip, no clock read but the
service cost's, and a wait of exactly 0.0.  It still passes through the
one service routine (``_run``) the pump's ``_service`` shares: the same
counters and SLA hit, service cost, requeue on a transient failure and
REJECT on any other exception.  Behind queued work ``validate`` is
``submit(request).result()``; ``submit`` never runs work inline.

Transient failures (:class:`~repro.common.errors.TransientBackendError`)
requeue with exponential backoff (``RETRY_BASE_DELAY`` doubling per
attempt up to ``RETRY_MAX_DELAY``) up to ``MAX_RETRIES`` times; any
other exception resolves the ticket REJECT rather than reaching the
thread that happened to service it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.common.clock import Clock, WallClock
from repro.common.errors import TransientBackendError
from repro.common.results import Ticket, ValidateResult, ValidateStatus
from repro.ingest.priority import (
    CLASS_RANK,
    CLASSES,
    PriorityClass,
    PriorityHeap,
    WorkItem,
)
from repro.telemetry import resolve_registry

__all__ = ["IngestConfig", "IngestQueue", "classify_request"]

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
        if waited > self.wait_max:
            self.wait_max = waited
        if waited <= sla:
            self.sla_hits += 1
        else:
            self.sla_misses += 1


class IngestQueue:
    """Priority-queued admission control in front of a validation runner,
    and itself a :class:`~repro.common.results.TokenBackend`."""

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
        #: Each class's queue-wait SLA, fixed when the heap is built.
        self._sla = {cls: CLASSES[cls][1] for cls in PriorityClass}
        self._seq = 0
        self._stats: Dict[PriorityClass, _ClassStats] = {
            cls: _ClassStats() for cls in PriorityClass
        }

        telemetry = resolve_registry(telemetry)
        wait = telemetry.histogram(
            "ingest_wait_seconds", "queue wait from admission to service"
        )
        self._m_wait = {cls: wait.labels(priority=cls.value) for cls in PriorityClass}
        # Telemetry off: a serviced item makes no histogram call at all.
        self._timed = telemetry.enabled

    # -- admission -----------------------------------------------------------

    def validate(
        self, user_id: str, code: Optional[str], source: Optional[str] = None
    ) -> ValidateResult:
        """Validate one request and return its result.

        An idle arrival runs on the caller's thread, counted as submitted
        in the lock section that saw the queue idle (module docstring); a
        busy queue takes ``submit(request).result()``.
        """
        request = (user_id, code) if source is None else (user_id, code, source)
        # classify_request's rule, read off the argument
        cls = PriorityClass.SMS if not code else PriorityClass.INTERACTIVE
        with self._lock:
            idle = not self._heap.size
            if idle:
                self._stats[cls].submitted += 1
        if not idle:
            return self.submit(request).result()
        outcome = self._run(cls, request, 0.0)
        return outcome.result() if type(outcome) is Ticket else outcome

    def submit(
        self, request: Sequence, priority: Optional[PriorityClass] = None
    ) -> Ticket:
        """Enqueue one request (``priority`` None: classify it by shape);
        its live ticket."""
        if type(request) is not tuple:
            request = tuple(request)
        cls = priority or classify_request(request)
        with self._lock:
            if len(self._heap) >= self.config.max_depth and not self._evict_for(cls):
                return self._refuse(cls)
            self._stats[cls].submitted += 1
            return self._push(cls, request, self._clock.now())

    def _push(
        self,
        cls: PriorityClass,
        request: Tuple,
        enqueued_at: float,
        ready_at: float = 0.0,
        attempts: int = 0,
    ) -> Ticket:
        """Number, build and push one work item; its ticket.  Under the lock."""
        self._seq += 1
        ticket = Ticket(drain=self._drain_for_ticket)
        self._heap.push(
            WorkItem(
                seq=self._seq,
                priority=cls,
                request=request,
                ticket=ticket,
                enqueued_at=enqueued_at,
                ready_at=ready_at,
                attempts=attempts,
            )
        )
        return ticket

    def _refuse(self, cls: PriorityClass) -> Ticket:
        """Shed an arrival at a full queue's door.  It still counts as
        submitted traffic, so shed-rate math has a denominator; an evicted
        item was counted when it was admitted."""
        stats = self._stats[cls]
        stats.submitted += 1
        stats.rejected += 1
        ticket = Ticket(drain=self._drain_for_ticket)
        self._resolve_shed(ticket, cls, f"queue full ({cls.value} rejected)")
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
        )
        return True

    def _resolve_shed(self, ticket: Ticket, cls: PriorityClass, detail: str) -> None:
        """Fail one ticket with a shed reason."""
        self._stats[cls].shed += 1
        ticket.resolve(ValidateResult(ValidateStatus.REJECT, reason=f"shed: {detail}"))

    # -- service -------------------------------------------------------------

    def _service(self, item: WorkItem) -> None:
        """Run one popped item; its ticket resolves unless a transient
        failure put it back in the queue."""
        waited = max(0.0, self._clock.now() - item.enqueued_at)
        outcome = self._run(item.priority, item.request, waited, item)
        if type(outcome) is not Ticket:
            item.ticket.resolve(outcome)

    def _run(
        self,
        cls: PriorityClass,
        request: Tuple,
        waited: float,
        item: Optional[WorkItem] = None,
    ) -> Union[ValidateResult, Ticket]:
        """The one service routine: accounting, service cost, the runner,
        transient retries and backend errors.  It never waits on a ticket.

        ``item`` is the popped work item, or None for an idle arrival run
        on its caller's thread (:meth:`validate`).  Returns the result, or,
        when a transient failure requeued the request with its backoff, the
        ticket it now resolves on: ``item``'s own, or a new item's for an
        idle arrival.  A retry's wait counts from its first admission; an
        idle arrival read no clock when it arrived, so its item is stamped
        with the clock read beside the service cost's charge, or, with no
        cost to charge, the failure instant: a runner that spends clock
        time and then fails transiently has that time in its retries'
        waits through ``submit``, not through ``validate``.  Called outside
        the lock — the runner does real validation work.
        """
        stats = self._stats[cls]
        sla = self._sla[cls]
        if self._timed:
            self._m_wait[cls].observe(waited)
        began = None
        if self.config.service_cost_seconds > 0:
            if item is None:
                began = self._clock.now()
            self._clock.sleep(self.config.service_cost_seconds)
        errored = False
        try:
            result = self._runner(*request)
        except TransientBackendError as exc:
            attempts = 1 if item is None else item.attempts + 1
            if attempts <= MAX_RETRIES:
                delay = min(RETRY_MAX_DELAY, RETRY_BASE_DELAY * (2 ** (attempts - 1)))
                with self._lock:
                    stats.observe_wait(waited, sla)
                    stats.retries += 1
                    now = self._clock.now()
                    if item is None:
                        admitted = now if began is None else began
                        return self._push(cls, request, admitted, now + delay, attempts)
                    item.attempts = attempts
                    item.ready_at = now + delay
                    self._heap.push(item)
                return item.ticket
            result = ValidateResult(
                ValidateStatus.REJECT,
                reason=f"backend unavailable after {attempts} attempts: {exc}",
            )
        except Exception as exc:  # noqa: BLE001 — a runner bug fails its own request only
            errored = True
            result = ValidateResult(
                ValidateStatus.REJECT, reason=f"backend error: {exc}"
            )
        with self._lock:
            if item is None:  # an idle arrival waited 0.0: within any SLA (> 0)
                stats.sla_hits += 1
            else:
                stats.observe_wait(waited, sla)
            stats.completed += 1
            if errored:
                stats.errors += 1
        return result

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
                    "sla_seconds": self._sla[cls],
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

