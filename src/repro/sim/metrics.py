"""Per-day metric series and the figure-shaped views the benchmarks print.

One :class:`DailyMetrics` instance collects everything Figures 3-6 and
Table 1 need; accessors return numpy arrays for the series and plain
summaries (rankings, ratios, phase means) for the shape assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Dict, List, Tuple

import numpy as np


@dataclass
class DailyMetrics:
    """Day-indexed counters for the whole simulation horizon."""

    start: date
    days: int
    # Figure 3: unique users authenticating with MFA, per day.
    unique_mfa_users: np.ndarray = field(init=False)
    # Figure 4: SSH traffic, per day, by channel.
    external_mfa: np.ndarray = field(init=False)
    external_nonmfa: np.ndarray = field(init=False)
    internal: np.ndarray = field(init=False)
    # Figure 5: support tickets per day.
    mfa_tickets: np.ndarray = field(init=False)
    other_tickets: np.ndarray = field(init=False)
    # Figure 6: newly initialized pairings per day (and their types).
    new_pairings: np.ndarray = field(init=False)
    pairing_types: Dict[str, int] = field(default_factory=dict)
    # Verification of the sampled real-login cross-check.
    real_logins_run: int = 0
    real_login_mismatches: int = 0
    #: The day series above, in column order.
    _SERIES = (
        "unique_mfa_users",
        "external_mfa",
        "external_nonmfa",
        "internal",
        "mfa_tickets",
        "other_tickets",
        "new_pairings",
    )

    def __post_init__(self) -> None:
        for name in self._SERIES:
            setattr(self, name, np.zeros(self.days, dtype=np.int64))

    # -- day helpers -------------------------------------------------------------

    def day_of(self, d: date) -> int:
        return (d - self.start).days

    def date_of(self, day: int) -> date:
        return self.start + timedelta(days=day)

    # -- Figure 4 composites -------------------------------------------------------

    @property
    def external_total(self) -> np.ndarray:
        """The red bars: all external SSH traffic."""
        return self.external_mfa + self.external_nonmfa

    @property
    def all_traffic(self) -> np.ndarray:
        """The black bars: internal plus external."""
        return self.internal + self.external_total

    # -- Figure 5 composites -------------------------------------------------------

    def mfa_ticket_share(self, start: date, end: date) -> float:
        """Mean share of tickets that are MFA-related over [start, end]."""
        lo, hi = self.day_of(start), self.day_of(end) + 1
        lo, hi = max(lo, 0), min(hi, self.days)
        mfa = self.mfa_tickets[lo:hi].sum()
        total = mfa + self.other_tickets[lo:hi].sum()
        return float(mfa) / total if total else 0.0

    # -- Figure 6 composites -------------------------------------------------------

    def pairing_rank_of(self, d: date) -> int:
        """1-based rank of a date by new-pairing count (1 = biggest day)."""
        day = self.day_of(d)
        order = np.argsort(self.new_pairings)[::-1]
        return int(np.where(order == day)[0][0]) + 1

    def top_pairing_days(self, k: int = 5) -> List[Tuple[date, int]]:
        order = np.argsort(self.new_pairings)[::-1][:k]
        return [(self.date_of(int(i)), int(self.new_pairings[i])) for i in order]

    # -- Table 1 ---------------------------------------------------------------------

    def pairing_breakdown_percent(self) -> Dict[str, float]:
        total = sum(self.pairing_types.values())
        if total == 0:
            return {}
        return {
            k: 100.0 * v / total
            for k, v in sorted(
                self.pairing_types.items(), key=lambda kv: -kv[1]
            )
        }

    # -- windowed means (phase comparisons) --------------------------------------------

    def mean_over(self, series: np.ndarray, start: date, end: date) -> float:
        lo, hi = max(self.day_of(start), 0), min(self.day_of(end) + 1, self.days)
        if hi <= lo:
            return 0.0
        return float(series[lo:hi].mean())

    # -- export ------------------------------------------------------------------------

    def to_csv(self, path: str) -> int:
        """Write the daily series as CSV for downstream plotting.

        Columns: date plus one per series.  Returns the row count.
        """
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("date," + ",".join(self._SERIES) + "\n")
            for day in range(self.days):
                values = ",".join(
                    str(int(getattr(self, name)[day])) for name in self._SERIES
                )
                handle.write(f"{self.date_of(day).isoformat()},{values}\n")
        return self.days
