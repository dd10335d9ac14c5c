"""Metric primitives: labeled counters, gauges and histograms.

The paper's operations story (Section 4, Figures 3-6) is built on watching
the rollout live — per-layer auth logs, failure counts, traffic graphs.
These are the in-process equivalents: each instrument holds any number of
*series*, one per distinct label set, so a single ``pam_module_results_total``
counter carries ``{module=pam_unix, result=success}`` next to
``{module=pam_mfa_token, result=auth_err}``.

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
from typing import Dict, Iterable, List, Optional, Tuple

#: A label set normalized to a hashable, order-independent key.
LabelKey = Tuple[Tuple[str, str], ...]

#: Where increments land once an instrument exceeds its series budget.
OVERFLOW_KEY: LabelKey = (("__overflow__", "true"),)

#: Series budget per instrument unless the registry overrides it.
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
    """Shared series bookkeeping for all three metric kinds."""

    kind = "instrument"

    def __init__(self, name: str, help: str = "", max_series: int = DEFAULT_MAX_SERIES) -> None:
        if not name:
            raise ValueError("instrument name must be non-empty")
        self.name = name
        self.help = help
        self._max_series = max_series
        self.overflow_count = 0
        # Guards every read-modify-write on the series dict: the OTP
        # pipeline's batch path drives these instruments from worker
        # threads, and a lost increment is a silently wrong dashboard.
        self._lock = threading.Lock()

    def _resolve_key(self, series: Dict[LabelKey, object], labels: Dict[str, object]) -> LabelKey:
        key = label_key(labels)
        if key not in series and len(series) >= self._max_series:
            self.overflow_count += 1
            return OVERFLOW_KEY
        return key

    def reset(self) -> None:
        with self._lock:
            self._series.clear()
            self.overflow_count = 0


class _ScalarInstrument(_Instrument):
    """One float per label set: what :class:`Counter` and :class:`Gauge` share."""

    def __init__(self, name: str, help: str = "", max_series: int = DEFAULT_MAX_SERIES) -> None:
        super().__init__(name, help, max_series)
        self._series: Dict[LabelKey, float] = {}

    def value(self, **labels: object) -> float:
        return self._series.get(label_key(labels), 0.0)

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


class Counter(_ScalarInstrument):
    """A monotonically increasing value per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (amount={amount})")
        with self._lock:
            key = self._resolve_key(self._series, labels)
            self._series[key] = self._series.get(key, 0.0) + amount

    def total(self) -> float:
        """Sum over every series (all label sets)."""
        with self._lock:
            return sum(self._series.values())


class Gauge(_ScalarInstrument):
    """A value that can move both ways (queue depths, table sizes)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            key = self._resolve_key(self._series, labels)
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        with self._lock:
            key = self._resolve_key(self._series, labels)
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)


class _HistogramSeries:
    """Bucket counts plus running aggregates for one label set."""

    __slots__ = ("bucket_counts", "count", "sum", "min", "max")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 for the +Inf bucket
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None


class Histogram(_Instrument):
    """Observation distribution: cumulative-style buckets + sum/count/min/max."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        super().__init__(name, help, max_series)
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        self.buckets = bounds
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def _get_series(self, labels: Dict[str, object]) -> _HistogramSeries:
        key = self._resolve_key(self._series, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        return series

    def observe(self, value: float, **labels: object) -> None:
        index = len(self.buckets)  # default: the +Inf bucket
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            series = self._get_series(labels)
            series.bucket_counts[index] += 1
            series.count += 1
            series.sum += value
            series.min = value if series.min is None else min(series.min, value)
            series.max = value if series.max is None else max(series.max, value)

    def count(self, **labels: object) -> int:
        series = self._series.get(label_key(labels))
        return series.count if series else 0

    def sum(self, **labels: object) -> float:
        series = self._series.get(label_key(labels))
        return series.sum if series else 0.0

    def mean(self, **labels: object) -> float:
        series = self._series.get(label_key(labels))
        if not series or not series.count:
            return 0.0
        return series.sum / series.count

    def bucket_counts(self, **labels: object) -> List[int]:
        """Per-bucket (non-cumulative) counts; last entry is the +Inf bucket."""
        series = self._series.get(label_key(labels))
        return list(series.bucket_counts) if series else [0] * (len(self.buckets) + 1)

    def quantile(self, q: float, **labels: object) -> float:
        """Bucket-boundary quantile estimate (the Prometheus approximation)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        series = self._series.get(label_key(labels))
        if not series or not series.count:
            return 0.0
        target = q * series.count
        cumulative = 0
        for i, bound in enumerate(self.buckets):
            cumulative += series.bucket_counts[i]
            if cumulative >= target:
                return bound
        return series.max if series.max is not None else self.buckets[-1]

    def snapshot(self) -> dict:
        out = []
        with self._lock:
            items = sorted(self._series.items())
        for key, series in items:
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
