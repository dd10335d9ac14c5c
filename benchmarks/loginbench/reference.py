"""The benchmark's yardstick: a fixed piece of interpreter work timed beside
every op, so that a time can be reported at *reference speed*.

This sandbox is a few cores of a shared host.  What the neighbours do moves
the speed of everything here by a factor of up to two, for milliseconds or
for minutes at a time, and no estimator of wall-clock time alone repeats
under that (README.md, "Two kinds of gate", has the numbers).  A second
timing taken at the same moments moves with the first, and their ratio
moves far less.

The *unit* is one pass over the next hundred entries of a private directory
with a two-clause filter: method calls, dict and list lookups and string
compares, which is what the system under test spends its time on.  The
directory has 10,000 entries walked in the order they were made, like the
system's own: a working set too large for the core's own cache.  (Beside it were tried a bare arithmetic loop, the
same scan over 200 and 2,000 entries, and over 10,000 shuffled ones.  The
small ones follow some of the neighbours' spells well and others badly,
the shuffled one the other way round; this one sits between.)
It is the benchmark's code, not the program's: no change to the program can
move it.

A reading in *reference microseconds* is ``wall time / unit time x UNIT_US``:
what the op would have taken on a machine that runs the unit in ``UNIT_US``,
which is what this sandbox does when it is quiet.  The constant only fixes
the scale.
"""

from __future__ import annotations

import time
from typing import List

#: The unit's duration on the quiet sandbox the benchmark was written on
#: (Xeon 2.1 GHz, CPython 3.11).
UNIT_US = 41.0

ENTRIES = 10_000
PER_UNIT = 100


class _Entry:
    def __init__(self, n: int) -> None:
        self.attrs = {
            "uid": [f"r{n:05d}"],
            "cn": [f"Reference User {n}"],
            "objectClass": ["person", "posixAccount"],
            "uidNumber": [str(5000 + n)],
        }

    def get(self, key: str):
        return self.attrs.get(key, ())


def _match(entry: _Entry, key: str, value: str) -> bool:
    for held in entry.get(key):
        if held.lower() == value:
            return True
    return False


class Reference:
    """Runs units back to back and says how long one took."""

    def __init__(self) -> None:
        self._entries: List[_Entry] = [_Entry(n) for n in range(ENTRIES)]
        self._at = 0

    def unit(self) -> list:
        at = self._at
        self._at = (at + PER_UNIT) % ENTRIES
        return [
            entry
            for entry in self._entries[at : at + PER_UNIT]
            if _match(entry, "objectClass", "posixaccount")
            and _match(entry, "uid", "r00042")
        ]

    def burst(self, at_least_ns: int) -> float:
        """Whole units for ``at_least_ns`` (one at least); ns per unit."""
        unit, now = self.unit, time.perf_counter_ns
        units = 0
        start = now()
        while True:
            unit()
            units += 1
            elapsed = now() - start
            if elapsed >= at_least_ns:
                return elapsed / units
