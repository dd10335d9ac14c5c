"""Priority classes and the admission heap.

Three classes, ranked (lower rank = served first):

===============  ====  =====  ==============  ================================================
class            rank  SLA    promotes every  traffic
===============  ====  =====  ==============  ================================================
``interactive``  1     1 s    never           a human at an SSH prompt waiting on ``validate``
``sms``          2     2 s    30 s            SMS challenge dispatch (null requests)
``batch``        4     120 s  60 s            resync backfills, job-array token refreshes
===============  ====  =====  ==============  ================================================

Shedding honours the reverse order: under backpressure ``batch`` dies
first and ``interactive`` last.

Anti-starvation: a lane whose head item has waited its class's promotion
window is treated one rank better per elapsed window, capped at
``MAX_PROMOTION`` ranks.  The cap is load-bearing for the SLA story — a
10k-item ``batch`` backfill promotes at most to rank 2, so after two
windows it draws level with ``sms`` work (the older head wins the tie) but
never overtakes an ``interactive`` login, which is how interactive p99
stays flat while the backfill drains.  Rank 3 is a gap, not a class: one
window lifts ``batch`` to it, still behind ``sms``.

``sms`` is the one class that can pass ``interactive``: an ``sms`` head
that has waited two 30 s windows reaches rank 0 and pops ahead of a fresh
login.  That bounds how long an SMS dispatch can starve behind a stream of
logins — a minute, against a code that is valid for five.

The structure ("heap" by tradition; see ROADMAP item 2) is one FIFO deque
per class plus rank arithmetic at pop time: selection is O(classes), every
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
from typing import Dict, Iterable, Optional, Tuple


class PriorityClass(str, Enum):
    INTERACTIVE = "interactive"
    SMS = "sms"
    BATCH = "batch"


#: Per class: its service rank (lower pops first), its queue-wait SLA in
#: seconds (hit or miss counted at service time) and the age per one-rank
#: promotion of its lane's head (``inf``: never promotes) — the table in the
#: module docstring.
CLASSES: Dict[PriorityClass, Tuple[int, float, float]] = {
    PriorityClass.INTERACTIVE: (1, 1.0, math.inf),
    PriorityClass.SMS: (2, 2.0, 30.0),
    PriorityClass.BATCH: (4, 120.0, 60.0),
}

#: Service order: lower rank pops first.
CLASS_RANK: Dict[PriorityClass, int] = {cls: row[0] for cls, row in CLASSES.items()}

#: Shed order: worst rank first — batch before sms before interactive.
SHED_ORDER: Tuple[PriorityClass, ...] = tuple(
    sorted(PriorityClass, key=lambda c: -CLASS_RANK[c])
)

#: The most ranks age can buy a lane's head.
MAX_PROMOTION = 2


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

    ``rank``, ``promote_after`` and ``promotes`` are read from
    :data:`CLASSES` at construction: the pop loop touches every lane on
    every selection, so the hot path must not re-derive them each time.
    """

    priority: PriorityClass
    items: deque = field(default_factory=deque)
    delayed: list = field(default_factory=list)  # heap of (ready_at, seq, item)
    rank: int = field(init=False)
    promote_after: float = field(init=False)
    promotes: bool = field(init=False)

    def __post_init__(self) -> None:
        self.rank, _, self.promote_after = CLASSES[self.priority]
        self.promotes = math.isfinite(self.promote_after)

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
        promoted = int(self.head_age(now) // self.promote_after)
        return self.rank - min(MAX_PROMOTION, promoted)


class PriorityHeap:
    """The admission structure: push anywhere, pop the best-ranked head.

    Not thread-safe on its own — :class:`repro.ingest.IngestQueue` holds
    the lock.
    """

    def __init__(self) -> None:
        # _lanes is in service (rank) order; shed walks it backwards.
        self._lanes: Dict[PriorityClass, _Lane] = {
            cls: _Lane(cls)
            for cls in sorted(PriorityClass, key=CLASS_RANK.__getitem__)
        }
        self._lane_list = list(self._lanes.values())  # pop's iteration order
        self.size = 0  # total queued items: an O(1) len(), the queue's idle test

    def push(self, item: WorkItem) -> None:
        lane = self._lanes[item.priority]
        if item.ready_at > item.enqueued_at or lane.delayed:
            # A backoff delay, or earlier retries still pending: go through
            # the ready-heap so maturation order stays by ready time.
            heapq.heappush(lane.delayed, (item.ready_at, item.seq, item))
        else:
            lane.items.append(item)
        self.size += 1

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
        self.size -= 1
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
        self.size -= 1
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
        return self.size

    def depth(self, priority: PriorityClass) -> int:
        return self._lanes[priority].depth()

    def oldest_age(self, priority: PriorityClass, now: float) -> float:
        return self._lanes[priority].oldest_age(now)

    def classes(self) -> Iterable[PriorityClass]:
        return self._lanes.keys()
