"""Metric primitives: labeled counters and histograms.

The paper's operations story (Section 4, Figures 3-6) is built on watching
the rollout live — per-layer auth logs, failure counts, traffic graphs.
These are the in-process equivalents: each instrument holds any number of
*series*, one per distinct label set, so a single ``pam_module_results_total``
counter carries ``{module=pam_unix, result=success}`` next to
``{module=pam_mfa_token, result=auth_err}``.

A label set reaches an instrument one of two ways.  A site whose label
values form a closed set known up front (a stage name, a validate status)
binds once — ``child = instrument.labels(stage="replay_guard")`` — and then
calls ``child.observe(value)`` / ``child.inc()`` with no label arguments:
the key was normalized at binding, so an update is the instrument's
private update and nothing else (a closed set whose members are learned as
they occur — a storage table — binds each on first use through a
:class:`LabelChildren` map).  A site whose label values are open (a
replayed token's serial) keeps the keyword form,
``instrument.inc(serial=serial)``, which normalizes per event.  Both end
in the same private update, so the lock and the cardinality cap are one
piece of code per kind.  Binding creates no series — a child that never
fires is absent from the snapshot and the exposition text — and a child
bound before ``reset()`` keeps working after it (it holds the key, not a
cell).

A histogram update pays only for the fact it records: it stores the value
(and its label key) in the next slot of a fixed buffer under the lock and
returns.  The buffer is folded into the series — bucket indexes, counts,
sums in arrival order, min and max, each a C pass over the held values —
when it fills, and under the same lock before anything reads a series.  A
caller holding several observations of one event (a pipeline run's stage
times) hands them over as one update, one slot: a scrape sees all of them
or none, and never an observation's new count beside its old buckets.

Design constraints:

* no external dependencies — the snapshot/export layer produces the
  Prometheus-style text format, but nothing here imports a client library;
* bounded cardinality — every instrument caps its series count; past the
  cap new label sets collapse into a single overflow series instead of
  growing without bound (a mis-labeled instrument must not become a leak);
* cheap when disabled — the no-op twins in :mod:`repro.telemetry.registry`
  share this module's interface but allocate nothing per call.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections import deque
from functools import partial, reduce
from itertools import chain, compress, repeat
from operator import add, eq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A label set normalized to a hashable, order-independent key.
LabelKey = Tuple[Tuple[str, str], ...]

#: Where increments land once an instrument exceeds its series budget.
OVERFLOW_KEY: LabelKey = (("__overflow__", "true"),)

#: Series budget per instrument; past it, new label sets share the overflow
#: series.
DEFAULT_MAX_SERIES = 512

#: Histogram updates held per instrument before they are folded into their
#: series (a read folds whatever is held first).
BUFFERED_UPDATES = 256

_INF = float("inf")

#: Histogram bucket upper bounds tuned for seconds-scale latencies.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def label_key(labels: Dict[str, object]) -> LabelKey:
    """Normalize a label dict: stringify values, sort by name."""
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """What both metric kinds share: a name, a help line and the lock."""

    kind = "instrument"

    def __init__(self, name: str, help: str = "") -> None:
        if not name:
            raise ValueError("instrument name must be non-empty")
        self.name = name
        self.help = help
        # Guards every read-modify-write on the series dict: the OTP
        # pipeline's batch path drives these instruments from worker
        # threads, and a lost increment is a silently wrong dashboard.
        self._lock = threading.Lock()


class LabelChildren(dict):
    """Label values → the instrument's child bound to them, bound on first
    use: for a closed label set whose members are learned as they occur (a
    storage table, a pairing type).  A hit is one subscript and no frame.
    Keys are value tuples in ``names`` order."""

    def __init__(self, instrument, names: Tuple[str, ...]) -> None:
        super().__init__()
        self.instrument = instrument
        self.names = names

    def __missing__(self, values: Tuple[object, ...]):
        child = self[values] = self.instrument.labels(**dict(zip(self.names, values)))
        return child


class BoundCounter:
    """``counter.labels(...)``: one label set of a counter, resolved once.

    ``inc(amount=1.0)`` is the counter's private update with the key
    already in hand (bound in C by ``partial``: no forwarding frame).
    """

    __slots__ = ("inc",)

    def __init__(self, counter: "Counter", key: LabelKey) -> None:
        self.inc = partial(counter._add, key)


class Counter(_Instrument):
    """A monotonically increasing value per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._series: Dict[LabelKey, float] = {}
        self.overflow_count = 0

    def _admit(self, key: LabelKey) -> LabelKey:
        """Where an update to a label set with no series yet lands: its own
        new series while the budget lasts, the overflow series after.
        Called under the lock, per update, for both calling forms."""
        if len(self._series) >= DEFAULT_MAX_SERIES:
            self.overflow_count += 1
            return OVERFLOW_KEY
        return key

    def _add(self, key: LabelKey, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (amount={amount})")
        with self._lock:
            series = self._series
            try:
                series[key] += amount
            except KeyError:
                key = self._admit(key)
                series[key] = series.get(key, 0.0) + amount

    def labels(self, **labels: object) -> BoundCounter:
        return BoundCounter(self, label_key(labels))

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        self._add(label_key(labels), amount)

    def value(self, **labels: object) -> float:
        return self._series.get(label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every series (all label sets)."""
        with self._lock:
            return sum(self._series.values())

    def series(self) -> Dict[LabelKey, float]:
        with self._lock:
            return dict(self._series)

    def reset(self) -> None:
        with self._lock:
            self._series.clear()
            self.overflow_count = 0

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "series": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self.series().items())
            ],
        }


class _HistogramSeries:
    """Bucket counts plus running aggregates for one label set."""

    __slots__ = ("bucket_counts", "count", "sum", "min", "max")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 for the +Inf bucket
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None


class BoundHistogram:
    """``histogram.labels(...)``: ``observe(value)`` on one label set,
    resolved once."""

    __slots__ = ("observe",)

    def __init__(self, histogram: "Histogram", key: LabelKey) -> None:
        self.observe = partial(histogram._observe, (key,))


class Histogram(_Instrument):
    """Observation distribution: cumulative-style buckets + sum/count/min/max.

    An update only stores what it was handed — a slot of a fixed buffer,
    under the lock — and the buffer is folded into the series when it fills
    and, under the same lock, before anything reads them.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        self.buckets = bounds
        self._series: Dict[LabelKey, _HistogramSeries] = {}
        self._overflow_count = 0
        # The updates not folded yet, oldest first: slot ``i < _pending`` holds
        # one update's label keys and values (a lone observation's as
        # one-tuples, a run's as handed over).
        self._room = BUFFERED_UPDATES
        self._keys: List[Sequence[LabelKey]] = [()] * self._room
        self._values: List[Sequence[float]] = [()] * self._room
        self._pending = 0

    def _observe(self, keys: Tuple[LabelKey], value: float) -> None:
        """One observation of the series ``keys[0]`` (a bound child hands
        over the same one-tuple every time)."""
        # What the fold will do with the value — add it to a float sum,
        # compare it with a bound — tried here, at no call: a value it could
        # not take (None, a str) raises TypeError at this call, before it is
        # held, not in whichever later call folds the buffer.
        0.0 + value <= _INF
        with self._lock:
            slot = self._pending
            self._keys[slot] = keys
            self._values[slot] = (value,)
            self._pending = slot = slot + 1
            if slot == self._room:
                self._fold()

    def _observe_run(self, keys: Sequence[LabelKey], values: Sequence[float]) -> None:
        """``values[i]`` observed into the series ``keys[i]`` for every slot
        (the two are as long as each other), as one update: a scrape sees
        all of one run (a pipeline's stage times) or none of it.  A NaN
        slot — a stage that did not run — is dropped like any NaN.  The
        histogram keeps both sequences until its next fold: the caller hands
        over numbers, in sequences it no longer changes."""
        with self._lock:
            slot = self._pending
            self._keys[slot] = keys
            self._values[slot] = values
            self._pending = slot = slot + 1
            if slot == self._room:
                self._fold()

    def _fold(self) -> None:
        """Fold the held updates into their series, exactly as one update per
        observation in arrival order would have: NaNs dropped, new series
        admitted (and the budget applied, one overflow per update) in
        first-arrival order, each series' observations folded oldest first.
        Called under the lock."""
        pending = self._pending
        if not pending:
            return
        self._pending = 0
        keys = list(chain.from_iterable(self._keys[:pending]))
        values = list(chain.from_iterable(self._values[:pending]))
        present = list(map(eq, values, values))  # False for NaN
        if not all(present):
            # NaN, dropped: counted once, it would turn the series' sum — and
            # every later mean and ``_sum`` line — into NaN for good.
            keys = list(compress(keys, present))
            values = list(compress(values, present))
        # A bound child and a pipeline hand over the same key objects every
        # time, so the observations are routed by object identity: each
        # distinct object, first arrival first, is resolved to the series it
        # lands in once, and its observations go to that series' column in
        # one C pass (equal objects, and label sets past the budget, share a
        # column, their observations still in arrival order).
        ids = list(map(id, keys))
        series = self._series
        columns: Dict[LabelKey, List[float]] = {}
        column_of: Dict[int, List[float]] = {}
        overflowed = set()
        for ident, key in dict(zip(ids, keys)).items():
            target = key if key in series else self._admit(key)
            if target != key:
                overflowed.add(ident)
            column_of[ident] = columns.setdefault(target, [])
        if overflowed:
            self._overflow_count += sum(map(overflowed.__contains__, ids))
        if len(columns) == 1:
            columns = dict.fromkeys(columns, values)  # one series: every value
        else:
            deque(map(list.append, map(column_of.__getitem__, ids), values), 0)
        for key, column in columns.items():
            self._fold_series(key, column)

    def _fold_series(self, key: LabelKey, values: Sequence[float]) -> None:
        """Fold one series' observations (no NaN), oldest first, into its
        cell."""
        cell = self._series[key]
        # One addition per observation, oldest first: the sum a running
        # ``+=`` gives, to the bit (``sum()`` compensates on 3.12).
        cell.sum = reduce(add, values, cell.sum)
        n = len(values)
        cell.count += n
        # Sorted, stably: the first of equal values stays first, so the
        # minimum and maximum kept are the ones that arrived first, as a
        # running ``<`` / ``>`` keeps them.
        ordered = sorted(values)
        low, high = ordered[0], ordered[bisect_left(ordered, ordered[-1])]
        if cell.min is None or low < cell.min:
            cell.min = low
        if cell.max is None or high > cell.max:
            cell.max = high
        # A value's bucket is the first bound >= it: the observations at or
        # under each bound, less those under the bound before.
        counts = cell.bucket_counts
        below = 0
        for index, at_or_under in enumerate(map(bisect_right, repeat(ordered), self.buckets)):
            counts[index] += at_or_under - below
            below = at_or_under
        counts[-1] += n - below  # over the last bound: +Inf

    def _admit(self, key: LabelKey) -> LabelKey:
        """Where the observations of a label set with no series land: its own
        new series while the budget lasts, the overflow series (made if need
        be) after.  Called under the lock, in first-arrival order; the
        caller counts the overflows, one per update."""
        series = self._series
        if len(series) < DEFAULT_MAX_SERIES:
            series[key] = _HistogramSeries(len(self.buckets))
            return key
        if OVERFLOW_KEY not in series:
            series[OVERFLOW_KEY] = _HistogramSeries(len(self.buckets))
            if key == OVERFLOW_KEY:
                self._overflow_count += 1  # its own first update; the rest find it
        return OVERFLOW_KEY

    @property
    def overflow_count(self) -> int:
        """Updates that found the series budget spent."""
        with self._lock:
            self._fold()
            return self._overflow_count

    def reset(self) -> None:
        with self._lock:
            self._pending = 0
            self._series.clear()
            self._overflow_count = 0

    def labels(self, **labels: object) -> BoundHistogram:
        return BoundHistogram(self, label_key(labels))

    def observe(self, value: float, **labels: object) -> None:
        self._observe((label_key(labels),), value)

    def _cell(self, labels: Dict[str, object]) -> Optional[_HistogramSeries]:
        """The folded series for a label set (``None`` if it has none).
        Called under the lock."""
        self._fold()
        return self._series.get(label_key(labels))

    def count(self, **labels: object) -> int:
        with self._lock:
            series = self._cell(labels)
            return series.count if series else 0

    def sum(self, **labels: object) -> float:
        with self._lock:
            series = self._cell(labels)
            return series.sum if series else 0.0

    def mean(self, **labels: object) -> float:
        with self._lock:
            series = self._cell(labels)
            if not series or not series.count:
                return 0.0
            return series.sum / series.count

    def bucket_counts(self, **labels: object) -> List[int]:
        """Per-bucket (non-cumulative) counts; last entry is the +Inf bucket."""
        with self._lock:
            series = self._cell(labels)
            return list(series.bucket_counts) if series else [0] * (len(self.buckets) + 1)

    def quantile(self, q: float, **labels: object) -> float:
        """Bucket-boundary quantile estimate (the Prometheus approximation)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            series = self._cell(labels)
            if not series or not series.count:
                return 0.0
            target = q * series.count
            cumulative = 0
            for i, bound in enumerate(self.buckets):
                if not series.bucket_counts[i]:
                    continue  # an empty bucket holds no observation to answer with
                cumulative += series.bucket_counts[i]
                if cumulative >= target:
                    return bound
            return series.max if series.max is not None else self.buckets[-1]

    def snapshot(self) -> dict:
        out = []
        with self._lock:
            self._fold()
            for key, series in sorted(self._series.items()):
                out.append(
                    {
                        "labels": dict(key),
                        "count": series.count,
                        "sum": series.sum,
                        "min": series.min,
                        "max": series.max,
                        "buckets": [
                            {"le": bound, "count": series.bucket_counts[i]}
                            for i, bound in enumerate(self.buckets)
                        ]
                        + [{"le": "+Inf", "count": series.bucket_counts[-1]}],
                    }
                )
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "series": out,
        }
