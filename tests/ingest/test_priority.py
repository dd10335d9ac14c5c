"""Property suite for the admission heap (hypothesis-driven).

The three contracts the rest of the system leans on:

* FIFO within a class — two items of the same class serve in submission
  order, always;
* shedding honours the class ranking — ``batch`` dies first,
  ``interactive`` last, newest-first inside the victim class;
* promotion is capped — an aged ``batch`` head can overtake ``sms``
  but never ``interactive``, which is what keeps interactive p99 flat
  during a backfill.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.common.results import Ticket
from repro.ingest import (
    CLASS_RANK,
    PriorityClass,
    PriorityHeap,
    SHED_ORDER,
    WorkItem,
)
from repro.ingest import priority

classes = st.sampled_from(list(PriorityClass))
submissions = st.lists(classes, min_size=1, max_size=60)


def make_item(seq, cls, t=0.0, ready_at=None):
    return WorkItem(
        seq=seq,
        priority=cls,
        request=("user", "code"),
        ticket=Ticket(),
        enqueued_at=t,
        ready_at=t if ready_at is None else ready_at,
    )


def fill(seq_classes, t=0.0):
    heap = PriorityHeap()
    for i, cls in enumerate(seq_classes):
        heap.push(make_item(i, cls, t=t))
    return heap


def drain_pops(heap, now):
    order = []
    while True:
        item = heap.pop(now)
        if item is None:
            return order
        order.append(item)


class TestPopOrder:
    @given(submissions)
    def test_fifo_within_class(self, seq_classes):
        order = drain_pops(fill(seq_classes), now=0.0)
        for cls in PriorityClass:
            seqs = [item.seq for item in order if item.priority is cls]
            assert seqs == sorted(seqs)

    @given(submissions)
    def test_unaged_pops_sort_by_rank_then_seq(self, seq_classes):
        # At age zero nothing has promoted, so the service order is the
        # plain static priority order with seq as the tiebreak.
        order = drain_pops(fill(seq_classes), now=0.0)
        keys = [(CLASS_RANK[item.priority], item.seq) for item in order]
        assert keys == sorted(keys)

    @given(submissions)
    def test_drains_completely_exactly_once(self, seq_classes):
        order = drain_pops(fill(seq_classes), now=0.0)
        assert sorted(item.seq for item in order) == list(range(len(seq_classes)))


class TestPromotion:
    @given(st.floats(min_value=0.0, max_value=100_000.0))
    def test_batch_never_overtakes_interactive(self, age):
        # Whatever the batch head's age, a *fresh* interactive arrival is
        # served first: MAX_PROMOTION = 2 floors batch at rank 2 > rank 1.
        heap = PriorityHeap()
        heap.push(make_item(0, PriorityClass.BATCH, t=0.0))
        heap.push(make_item(1, PriorityClass.INTERACTIVE, t=age))
        first = heap.pop(age)
        assert first.priority is PriorityClass.INTERACTIVE

    @given(st.floats(min_value=120.0, max_value=100_000.0))
    def test_aged_batch_overtakes_fresh_sms(self, age):
        # Two promotion windows (2 x 60 s) lift batch to rank 2, level with
        # sms's static rank, and the older head wins — the anti-starvation
        # half.
        heap = PriorityHeap()
        heap.push(make_item(0, PriorityClass.BATCH, t=0.0))
        heap.push(make_item(1, PriorityClass.SMS, t=age))
        first = heap.pop(age)
        assert first.priority is PriorityClass.BATCH

    @given(st.floats(min_value=0.0, max_value=119.9))
    def test_one_window_leaves_batch_behind_fresh_sms(self, age):
        # Under two windows batch is at rank 4 or 3, still behind sms's 2.
        heap = PriorityHeap()
        heap.push(make_item(0, PriorityClass.BATCH, t=0.0))
        heap.push(make_item(1, PriorityClass.SMS, t=age))
        assert heap.pop(age).priority is PriorityClass.SMS

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=200))
    def test_no_starvation_under_continuous_sms_load(self, sms_arrivals):
        # One batch item at t=0 against an endless sms stream arriving
        # every second: the batch item must serve within a bounded wait
        # (two promotion windows + one service slot), never "eventually".
        heap = PriorityHeap()
        heap.push(make_item(0, PriorityClass.BATCH, t=0.0))
        seq = 1
        t = 0.0
        served_at = None
        for _ in range(sms_arrivals + 130):
            heap.push(make_item(seq, PriorityClass.SMS, t=t))
            seq += 1
            item = heap.pop(t)  # one service slot per simulated second
            if item is not None and item.priority is PriorityClass.BATCH:
                served_at = t
                break
            t += 1.0
        assert served_at is not None
        assert served_at <= 121.0

    def test_never_promotes_with_infinite_window(self, monkeypatch):
        def first_at(now):
            heap = PriorityHeap()
            heap.push(make_item(0, PriorityClass.SMS, t=0.0))
            heap.push(make_item(1, PriorityClass.INTERACTIVE, t=now))
            return heap.pop(now).priority

        # Two 30 s windows take an aged sms head past a fresh login ...
        assert first_at(1e9) is PriorityClass.SMS
        # ... and with no window it keeps its rank however long it waits.
        classes = {**priority.CLASSES, PriorityClass.SMS: (2, 2.0, math.inf)}
        monkeypatch.setattr(priority, "CLASSES", classes)
        assert first_at(1e9) is PriorityClass.INTERACTIVE

    def test_custom_policy_overrides_default(self, monkeypatch):
        classes = {**priority.CLASSES, PriorityClass.BATCH: (4, 1.0, 1.0)}
        monkeypatch.setattr(priority, "CLASSES", classes)
        monkeypatch.setattr(priority, "MAX_PROMOTION", 4)
        heap = PriorityHeap()
        heap.push(make_item(0, PriorityClass.BATCH, t=0.0))
        heap.push(make_item(1, PriorityClass.INTERACTIVE, t=10.0))
        # Four windows of promotion take batch to rank 0 — now it may
        # legitimately beat interactive (the cap is policy, not law).
        assert heap.pop(10.0).priority is PriorityClass.BATCH


class TestShedding:
    @given(submissions)
    def test_shed_order_honours_class_ranking(self, seq_classes):
        heap = fill(seq_classes)
        shed_ranks = []
        while len(heap):
            shed_ranks.append(CLASS_RANK[heap.shed().priority])
        # Worst rank always sheds first: the sequence never improves.
        assert shed_ranks == sorted(shed_ranks, reverse=True)
        assert heap.shed() is None

    @given(submissions)
    def test_shed_takes_newest_within_class(self, seq_classes):
        heap = fill(seq_classes)
        last_seq_by_class = {}
        for i, cls in enumerate(seq_classes):
            last_seq_by_class[cls] = i
        victim = heap.shed()
        assert victim.seq == last_seq_by_class[victim.priority]

    def test_shed_candidate_matches_shed(self):
        heap = fill([PriorityClass.INTERACTIVE, PriorityClass.SMS])
        assert heap.shed_candidate() is PriorityClass.SMS
        assert heap.shed().priority is PriorityClass.SMS
        assert heap.shed_candidate() is PriorityClass.INTERACTIVE

    def test_shed_order_constant_is_reverse_rank(self):
        assert [CLASS_RANK[c] for c in SHED_ORDER] == [4, 2, 1]


class TestDelayedRetries:
    def test_not_ready_not_popped(self):
        heap = PriorityHeap()
        heap.push(make_item(0, PriorityClass.INTERACTIVE, t=0.0, ready_at=5.0))
        assert heap.pop(4.9) is None
        assert heap.next_ready() == 5.0
        assert heap.pop(5.0).seq == 0

    def test_retries_mature_in_ready_order(self):
        heap = PriorityHeap()
        heap.push(make_item(0, PriorityClass.BATCH, t=0.0, ready_at=8.0))
        heap.push(make_item(1, PriorityClass.BATCH, t=0.0, ready_at=3.0))
        assert heap.pop(10.0).seq == 1
        assert heap.pop(10.0).seq == 0

    def test_depth_counts_delayed(self):
        heap = PriorityHeap()
        heap.push(make_item(0, PriorityClass.BATCH, t=0.0, ready_at=9.0))
        heap.push(make_item(1, PriorityClass.BATCH, t=0.0))
        assert heap.depth(PriorityClass.BATCH) == 2
        assert len(heap) == 2

    @given(submissions, st.integers(min_value=0, max_value=59))
    def test_shed_prefers_delayed_retries(self, seq_classes, delayed_index):
        # A pending retry is the newest commitment in its lane; shedding
        # must cancel it before any FIFO (already-earned) item.
        heap = fill(seq_classes)
        cls = seq_classes[delayed_index % len(seq_classes)]
        retry = make_item(len(seq_classes), cls, t=0.0, ready_at=50.0)
        heap.push(retry)
        victim_cls = heap.shed_candidate()
        victim = heap.shed()
        if victim_cls is cls:
            assert victim is retry

