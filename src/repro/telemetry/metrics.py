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
calls ``child.observe(value)`` / ``child.inc()`` with
no label arguments: the key was normalized at binding, so an update is the
instrument's private update and nothing else.  A site whose label values
are open (a server address, a phone destination) keeps the keyword form,
``instrument.inc(server=address)``, which normalizes per event.  Both end
in the same private update, so the lock, the series lookup and the
cardinality cap are one piece of code.  Binding creates no series — a child
that never fires is absent from the snapshot and the exposition text — and
a child bound before ``reset()`` keeps working after it (it holds the key,
not a cell).

A caller holding several observations of one event (a pipeline run's stage
times) hands them to the histogram's private batch update instead: one lock
acquisition for the lot, so a scrape sees all of them or none.  A read of
more than one of a cell's fields (a snapshot, a mean, a quantile) holds that
same lock, so it never sees an observation's new count beside its old buckets.

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
from bisect import bisect_left
from functools import partial
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A label set normalized to a hashable, order-independent key.
LabelKey = Tuple[Tuple[str, str], ...]

#: Where increments land once an instrument exceeds its series budget.
OVERFLOW_KEY: LabelKey = (("__overflow__", "true"),)

#: Series budget per instrument; past it, new label sets share the overflow
#: series.
DEFAULT_MAX_SERIES = 512

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
    """Shared series bookkeeping for both metric kinds."""

    kind = "instrument"

    def __init__(self, name: str, help: str = "") -> None:
        if not name:
            raise ValueError("instrument name must be non-empty")
        self.name = name
        self.help = help
        self.overflow_count = 0
        # Guards every read-modify-write on the series dict: the OTP
        # pipeline's batch path drives these instruments from worker
        # threads, and a lost increment is a silently wrong dashboard.
        self._lock = threading.Lock()

    def _admit(self, key: LabelKey) -> LabelKey:
        """Where an update to a label set with no series yet lands: its own
        new series while the budget lasts, the overflow series after.

        Called under the lock, from the private update of every kind — the
        one place the cap is applied, per update, for both calling forms.
        """
        if len(self._series) >= DEFAULT_MAX_SERIES:
            self.overflow_count += 1
            return OVERFLOW_KEY
        return key

    def reset(self) -> None:
        with self._lock:
            self._series.clear()
            self.overflow_count = 0


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
        self.observe = partial(histogram._observe, key)


class Histogram(_Instrument):
    """Observation distribution: cumulative-style buckets + sum/count/min/max."""

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

    def _observe(self, key: LabelKey, value: float) -> None:
        if value != value:
            # NaN: dropped.  Counted once, it would turn the series' sum —
            # and every later mean and ``_sum`` line — into NaN for good.
            return
        index = bisect_left(self.buckets, value)  # first bound >= value, else +Inf
        with self._lock:
            series = self._series
            try:
                cell = series[key]
            except KeyError:
                key = self._admit(key)
                cell = series.get(key)
                if cell is None:
                    cell = series[key] = _HistogramSeries(len(self.buckets))
            cell.bucket_counts[index] += 1
            cell.count += 1
            cell.sum += value
            if cell.min is None or value < cell.min:
                cell.min = value
            if cell.max is None or value > cell.max:
                cell.max = value

    def _observe_run(self, keys: Sequence[LabelKey], values: Sequence[float]) -> None:
        """``_observe(keys[i], values[i])`` for every slot, under one lock
        acquisition: a scrape sees all of one run (a pipeline's stage
        times) or none of it.  A NaN slot — a stage that did not run — is
        dropped like any NaN."""
        # Every bucket index in one C pass (a NaN maps to 0, then is skipped).
        indexes = list(map(bisect_left, repeat(self.buckets), values))
        with self._lock:
            series = self._series
            for key, value, index in zip(keys, values, indexes):
                if value != value:
                    continue
                # ``_observe``'s update, inlined: a frame per cell is what
                # this method exists to save.
                try:
                    cell = series[key]
                except KeyError:
                    key = self._admit(key)
                    cell = series.get(key)
                    if cell is None:
                        cell = series[key] = _HistogramSeries(len(self.buckets))
                cell.bucket_counts[index] += 1
                cell.count += 1
                cell.sum += value
                if cell.min is None or value < cell.min:
                    cell.min = value
                if cell.max is None or value > cell.max:
                    cell.max = value

    def labels(self, **labels: object) -> BoundHistogram:
        return BoundHistogram(self, label_key(labels))

    def observe(self, value: float, **labels: object) -> None:
        self._observe(label_key(labels), value)

    def count(self, **labels: object) -> int:
        series = self._series.get(label_key(labels))
        return series.count if series else 0

    def sum(self, **labels: object) -> float:
        series = self._series.get(label_key(labels))
        return series.sum if series else 0.0

    def mean(self, **labels: object) -> float:
        with self._lock:
            series = self._series.get(label_key(labels))
            if not series or not series.count:
                return 0.0
            return series.sum / series.count

    def bucket_counts(self, **labels: object) -> List[int]:
        """Per-bucket (non-cumulative) counts; last entry is the +Inf bucket."""
        with self._lock:
            series = self._series.get(label_key(labels))
            return list(series.bucket_counts) if series else [0] * (len(self.buckets) + 1)

    def quantile(self, q: float, **labels: object) -> float:
        """Bucket-boundary quantile estimate (the Prometheus approximation)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            series = self._series.get(label_key(labels))
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
