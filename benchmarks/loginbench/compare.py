#!/usr/bin/env python3
"""Compare two sets of loginbench runs: ``compare.py A.jsonl B.jsonl``.

Each file holds the records ``run.py --out FILE`` appended — one run or
many, any mix of workloads.  A is the parent, B the change.  One row is
printed per workload x end-to-end metric, with the bound BENCHMARK.json
fixes for that metric:

* ``regression`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — within the bound, but the run-to-run spread of either
  side (quartile distance over median) is wider than the bound, so the
  runs cannot tell; never reported as unchanged.  The exception is when
  every run of B reads better than every run of A (``ok``);
* ``gain`` — B wins at least nine tenths of the pairs (run *i* of A with
  run *i* of B; record them alternating which side goes first) and the
  medians differ by more than A's own quartile distance;
* ``ok`` — none of the above.

All records of one workload and seed, on either side, must agree on the
schedule digest.  Those that measured the same clean commit (``rig.commit``
without ``-dirty``) must also agree on every count metric: counts repeat
exactly for one seed, so a difference there means the benchmark itself is
not repeatable.  Between different commits, or from an uncommitted tree, a
count may well move; that is what the rows are for.

Exit status is 1 on any regression, a higher failure share, an incorrect
run in B, or a digest/count mismatch; otherwise 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Units of metrics that are counts, not times.
COUNT_UNITS = ("count", "1/op", "B/op", "ratio")


def load(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def judge(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float, str]:
    """(verdict, worsening as a share of A's median, pair wins) for one row."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / med_a
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    tally = f"{wins}/{wins + losses}"
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if worse_by > bound:
        return "regression", worse_by, tally
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved", worse_by, tally
    quartile_distance = spread(a) * med_a
    decided = wins + losses
    if (
        len(pairs) >= 10
        and decided
        and wins >= 0.9 * decided
        and abs(med_b - med_a) > quartile_distance
    ):
        return "gain", worse_by, tally
    return "ok", worse_by, tally


def same_work(records: List[dict]) -> List[str]:
    """Digest and count disagreements among runs of one workload and seed."""
    problems = []
    if len({record["schedule_sha256"] for record in records}) > 1:
        problems.append("schedule digests differ")
    by_commit: Dict[str, List[dict]] = defaultdict(list)
    for record in records:
        by_commit[record["rig"]["commit"]].append(record)
    for commit, runs in by_commit.items():
        if commit == "unknown" or commit.endswith("-dirty"):
            continue  # not known to be one program
        for name, metric in runs[0]["metrics"].items():
            values = {run["metrics"][name]["value"] for run in runs}
            if metric["unit"] in COUNT_UNITS and len(values) > 1:
                problems.append(f"{name} reads {sorted(values)} at commit {commit}")
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    sides = [load(argv[0]), load(argv[1])]
    status = 0

    # -- one row per workload x end-to-end metric ------------------------------
    values: List[Dict[str, Dict[str, List[float]]]] = []
    for records in sides:
        table: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
        for record in records:
            if not record["trace"]:
                for name, metric in record["metrics"].items():
                    table[record["workload"]][name].append(metric["value"])
        values.append(table)
    print(f"{'workload':18s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
          f"{'worse by':>9s} {'bound':>6s} {'pairs':>6s}  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a, b = values[0][workload][name], values[1][workload][name]
            if not a or not b:
                continue
            verdict, worse_by, tally = judge(a, b, metric["better"], metric["bound"])
            if verdict == "regression":
                status = 1
            print(
                f"{workload:18s} {name:18s} {statistics.median(a):12.3f} "
                f"{statistics.median(b):12.3f} {100 * worse_by:+8.2f}% "
                f"{100 * metric['bound']:5.0f}% {tally:>6s}  {verdict}"
            )

    # -- failures -------------------------------------------------------------
    shares = []
    for records in sides:
        attempted = sum(r["attempted"] for r in records)
        shares.append(sum(r["failed"] for r in records) / attempted if attempted else 0.0)
    incorrect = [r for r in sides[1] if not r["correct"]]
    print(f"fail_share: A {shares[0]:.6f}  B {shares[1]:.6f}; "
          f"incorrect runs in B: {len(incorrect)}")
    if shares[1] > shares[0] or incorrect:
        status = 1

    # -- same seed, same work ---------------------------------------------------
    by_key: Dict[tuple, List[dict]] = defaultdict(list)
    for record in sides[0] + sides[1]:
        by_key[(record["workload"], record["seed"], record["trace"])].append(record)
    for key in sorted(by_key):
        for problem in same_work(by_key[key]):
            print(f"MISMATCH {key[0]} seed {key[1]} trace {key[2]}: {problem}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
