"""Priority classes and the admission heap.

Five classes, ranked (lower rank = served first):

==============  ====  =======================================================
class           rank  traffic
==============  ====  =======================================================
``critical``    0     incident-response / break-glass logins
``interactive`` 1     a human at an SSH prompt waiting on ``/validate/check``
``sms``         2     SMS challenge dispatch (null requests)
``admin``       3     audit sweeps, admin console operations
``batch``       4     resync backfills, job-array token refreshes
==============  ====  =======================================================

Shedding honours the reverse order: under backpressure ``batch`` dies
first and ``critical`` last.

Anti-starvation: a lane whose head item has waited ``promote_after``
seconds is treated one rank better per elapsed window, capped at
``MAX_PROMOTION`` ranks.  The cap is load-bearing for the SLA story — a
10k-item ``batch`` backfill promotes at most to rank 2, so it can
overtake ``admin`` work but never an ``interactive`` login, which is how
interactive p99 stays flat while the backfill drains.

The structure ("heap" by tradition; see ROADMAP item 2) is five FIFO
deques plus rank arithmetic at pop time: selection is O(classes), every
operation is deterministic given the submission order and the clock, and
FIFO-within-class holds by construction — properties the hypothesis
suite in ``tests/ingest/test_priority.py`` pins down.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple


class PriorityClass(str, Enum):
    CRITICAL = "critical"
    INTERACTIVE = "interactive"
    SMS = "sms"
    ADMIN = "admin"
    BATCH = "batch"


#: Service order: lower rank pops first.
CLASS_RANK: Dict[PriorityClass, int] = {
    PriorityClass.CRITICAL: 0,
    PriorityClass.INTERACTIVE: 1,
    PriorityClass.SMS: 2,
    PriorityClass.ADMIN: 3,
    PriorityClass.BATCH: 4,
}

#: Shed order: worst rank first — batch before admin before sms before
#: interactive before critical.
SHED_ORDER: Tuple[PriorityClass, ...] = tuple(
    sorted(PriorityClass, key=lambda c: -CLASS_RANK[c])
)

#: The most ranks age can buy a lane's head.
MAX_PROMOTION = 2


@dataclass(frozen=True)
class ClassPolicy:
    """Per-class service-level knobs.

    ``sla_seconds`` is the queue-wait budget (hit/miss counted at service
    time); ``promote_after`` is the age per one-rank promotion
    (``inf`` = never promotes).
    """

    sla_seconds: float = 1.0
    promote_after: float = math.inf

    def __post_init__(self) -> None:
        if self.sla_seconds <= 0:
            raise ValueError(f"sla_seconds must be > 0, got {self.sla_seconds}")
        if self.promote_after <= 0:
            raise ValueError(f"promote_after must be > 0, got {self.promote_after}")


#: Defaults shaped like the paper's deployment: a human waits about a
#: second, an SMS a couple, batch work is best-effort but must not starve.
DEFAULT_POLICIES: Dict[PriorityClass, ClassPolicy] = {
    PriorityClass.CRITICAL: ClassPolicy(sla_seconds=0.5, promote_after=math.inf),
    PriorityClass.INTERACTIVE: ClassPolicy(sla_seconds=1.0, promote_after=math.inf),
    PriorityClass.SMS: ClassPolicy(sla_seconds=2.0, promote_after=30.0),
    PriorityClass.ADMIN: ClassPolicy(sla_seconds=10.0, promote_after=60.0),
    PriorityClass.BATCH: ClassPolicy(sla_seconds=120.0, promote_after=60.0),
}


@dataclass
class WorkItem:
    """One queued submission.

    ``enqueued_at`` never changes across retries — promotion age and the
    SLA wait measure from first admission; ``ready_at`` moves forward on
    each backoff so a retrying item stops competing until its delay runs
    out.
    """

    seq: int
    priority: PriorityClass
    request: Tuple
    ticket: object
    enqueued_at: float
    ready_at: float = 0.0
    attempts: int = 0

    def __post_init__(self) -> None:
        if self.ready_at < self.enqueued_at:
            self.ready_at = self.enqueued_at


@dataclass
class _Lane:
    """One class's FIFO deque plus a ready-time heap for retries.

    ``rank`` and ``promotes`` are precomputed at construction: the pop
    loop touches every lane on every selection, so the hot path must not
    re-derive them from the enum and policy each time.
    """

    priority: PriorityClass
    policy: ClassPolicy
    items: deque = field(default_factory=deque)
    delayed: list = field(default_factory=list)  # heap of (ready_at, seq, item)
    rank: int = field(init=False)
    promotes: bool = field(init=False)

    def __post_init__(self) -> None:
        self.rank = CLASS_RANK[self.priority]
        self.promotes = math.isfinite(self.policy.promote_after)

    def mature(self, now: float) -> None:
        """Move retries whose backoff has elapsed into the FIFO."""
        while self.delayed and self.delayed[0][0] <= now:
            _, _, item = heapq.heappop(self.delayed)
            self.items.append(item)

    def depth(self) -> int:
        return len(self.items) + len(self.delayed)

    def head_age(self, now: float) -> float:
        if not self.items:
            return 0.0
        return max(0.0, now - self.items[0].enqueued_at)

    def oldest_age(self, now: float) -> float:
        ages = [now - item.enqueued_at for item in self.items]
        ages += [now - item.enqueued_at for _, _, item in self.delayed]
        return max(ages) if ages else 0.0

    def effective_rank(self, now: float) -> float:
        """The lane's service rank after age-based promotion of its head."""
        if not self.items or not self.promotes:
            return self.rank
        promoted = int(self.head_age(now) // self.policy.promote_after)
        return self.rank - min(MAX_PROMOTION, promoted)


class PriorityHeap:
    """The admission structure: push anywhere, pop the best-ranked head.

    Not thread-safe on its own — :class:`repro.ingest.IngestQueue` holds
    the lock.
    """

    def __init__(self) -> None:
        # _lanes is in service (rank) order; shed walks it backwards.
        self._lanes: Dict[PriorityClass, _Lane] = {
            cls: _Lane(cls, DEFAULT_POLICIES[cls])
            for cls in sorted(PriorityClass, key=CLASS_RANK.__getitem__)
        }
        self._lane_list = list(self._lanes.values())  # pop's iteration order
        self._size = 0  # total queued items, maintained for O(1) len()

    def policy_for(self, priority: PriorityClass) -> ClassPolicy:
        return self._lanes[priority].policy

    def push(self, item: WorkItem) -> None:
        lane = self._lanes[item.priority]
        if item.ready_at > item.enqueued_at or lane.delayed:
            # A backoff delay, or earlier retries still pending: go through
            # the ready-heap so maturation order stays by ready time.
            heapq.heappush(lane.delayed, (item.ready_at, item.seq, item))
        else:
            lane.items.append(item)
        self._size += 1

    def pop(self, now: float) -> Optional[WorkItem]:
        """The ready item with the best (effective-rank, seq) — or None."""
        best: Optional[_Lane] = None
        best_key: Tuple[float, int] = (math.inf, -1)
        for lane in self._lane_list:
            if lane.delayed:
                lane.mature(now)
            if not lane.items:
                continue
            key = (lane.effective_rank(now), lane.items[0].seq)
            if key < best_key:
                best, best_key = lane, key
        if best is None:
            return None
        self._size -= 1
        return best.items.popleft()

    def shed_candidate(self) -> Optional[PriorityClass]:
        """Which class would lose an item right now (worst rank first)."""
        for cls in SHED_ORDER:
            if self._lanes[cls].depth():
                return cls
        return None

    def shed(self) -> Optional[WorkItem]:
        """Drop and return the newest item of the worst-ranked busy lane.

        Newest-first within the victim class keeps the oldest (closest to
        promotion, longest waiting) work alive — shedding should cancel
        the least-invested item.
        """
        cls = self.shed_candidate()
        if cls is None:
            return None
        lane = self._lanes[cls]
        self._size -= 1
        if lane.delayed:
            # Retries are the newest commitments; cancel those first,
            # newest ready-time last in the heap's sorted order.
            lane.delayed.sort()
            _, _, item = lane.delayed.pop()
            return item
        return lane.items.pop()

    def next_ready(self) -> Optional[float]:
        """Earliest timestamp a delayed retry matures, or None."""
        times = [lane.delayed[0][0] for lane in self._lanes.values() if lane.delayed]
        return min(times) if times else None

    def __len__(self) -> int:
        return self._size

    def depth(self, priority: PriorityClass) -> int:
        return self._lanes[priority].depth()

    def oldest_age(self, priority: PriorityClass, now: float) -> float:
        return self._lanes[priority].oldest_age(now)

    def classes(self) -> Iterable[PriorityClass]:
        return self._lanes.keys()

    def drain(self) -> List[WorkItem]:
        """Remove and return everything, service order — used by close()."""
        out: List[WorkItem] = []
        for lane in self._lanes.values():
            out.extend(lane.items)
            out.extend(item for _, _, item in sorted(lane.delayed))
            lane.items.clear()
            lane.delayed.clear()
        self._size = 0
        return out
