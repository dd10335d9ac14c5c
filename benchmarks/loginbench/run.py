#!/usr/bin/env python3
"""loginbench — one paper-scale benchmark of the SSH -> PAM -> RADIUS -> OTP path.

    python3 benchmarks/loginbench/run.py --workload login_mfa --seed 1 --seconds 10 --trace 0

builds the workload's seeded deployment (several times: set-up time is a
metric), drives it closed-loop from one client thread with zero think time,
checks every outcome against a reference model, and prints every metric by
name with its unit.  The gated times are read beside a fixed unit of work
of the benchmark's own (reference.py), because this machine's speed is not
its own to keep.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` reruns the workload with timing proxies at the layer
boundaries and reports the per-layer metrics.  Without ``--workload`` every
workload is run both ways, each in a fresh process.  README.md has the
workload and metric tables; BENCHMARK.json at the repository root has the
contract.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

sys.path.insert(0, str(ROOT / "src"))
try:
    import tracing  # noqa: E402
    from reference import UNIT_US, Reference  # noqa: E402
    from workloads import WORKLOADS, Segment, Workload  # noqa: E402
except ImportError as exc:  # the system under test is not in this checkout
    sys.exit(f"loginbench: cannot import the system under test ({ROOT / 'src'}): {exc}")

DEFAULT_SEED = 20160810
ACCOUNTS = 10_000
SETUPS = 3  # rigs built per untraced run; setup_s is their median
SETUP_BURST_NS = 100_000_000  # the reference runs this long either side of a build
PREFIX_SEGMENTS = 2  # segments after warm-up that every run of a seed shares
PAIRING_PAGES = 30

Metrics = Dict[str, Tuple[float, str]]


def pooled(segments: List[Segment]) -> Dict[str, List[int]]:
    """Every latency of ``segments``, by op kind."""
    by_kind: Dict[str, List[int]] = {}
    for seg in segments:
        for kind, latencies in seg.by_kind.items():
            by_kind.setdefault(kind, []).extend(latencies)
    return by_kind


def end_to_end(
    workload: Workload,
    paced: List[Segment],
    counter: tracing.CallCounter,
    prefix_rss_kb: int,
) -> Metrics:
    """The gated metrics (``setup_s`` joins them when the run's last build
    is done): exact call counts, median latencies at reference speed (see
    reference.py) and memory at a fixed point."""
    in_units: Dict[str, List[float]] = {}
    for seg in paced:
        for kind, units in seg.in_units.items():
            in_units.setdefault(kind, []).extend(units)
    ops = sum(len(units) for units in in_units.values())
    median_units = sum(
        len(units) * statistics.median(units) for units in in_units.values()
    )
    return {
        "calls_per_op": (
            counter.calls(workload.primary) / counter.ops[workload.primary],
            "1/op",
        ),
        "mix_calls_per_op": (
            sum(counter.calls(kind) for kind in counter.ops) / sum(counter.ops.values()),
            "1/op",
        ),
        "p50_ref_us": (statistics.median(in_units[workload.primary]) * UNIT_US, "us"),
        # The whole mix, each op kind at its own median: mean service time
        # per op, whose reciprocal is the closed loop's throughput.
        "mix_p50_ref_us": (median_units / ops * UNIT_US, "us"),
        # Peak RSS once set-up, warm-up and the first two timed segments are
        # done: the same work in every run, however fast the machine is.
        "rss_mb": (prefix_rss_kb / 1024.0, "MB"),
    }


def plain_latency(workload: Workload, untraced: List[Segment]) -> Metrics:
    """The primary op's latency with the neighbours' noise left in:
    diagnostics, never gated."""
    primary = sorted(pooled(untraced)[workload.primary])
    return {
        "e2e.p50_us": (statistics.median(primary) / 1000.0, "us"),
        "e2e.p99_us": (primary[int(0.99 * len(primary))] / 1000.0, "us"),
        "e2e.p99_samples": (float(len(primary)), "samples"),
    }


def commit() -> str:
    """The commit measured, marked ``-dirty`` when the tree differs from it."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--abbrev=12"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: float = 10.0,
    trace: bool = False,
    accounts: int = ACCOUNTS,
    scale: float = 1.0,
    out_dir: Path = OUT,
) -> dict:
    """One run of one workload; returns the output record."""
    workload = WORKLOADS[name](seed, accounts, scale)
    wal_root = Path(out_dir) / f"wal_{name}_{os.getpid()}"
    yardstick = Reference()
    builds: List[float] = []  # wall seconds of each set-up
    builds_ref: List[float] = []  # the same at reference speed

    def build():
        gc.collect()
        wal_dir = wal_root / str(len(builds))
        wal_dir.mkdir(parents=True)
        unit_ns = yardstick.burst(SETUP_BURST_NS)
        start = time.perf_counter()
        rig = workload.build(str(wal_dir))
        builds.append(time.perf_counter() - start)
        unit_ns = (unit_ns + yardstick.burst(SETUP_BURST_NS)) / 2.0
        builds_ref.append(builds[-1] * 1000.0 * UNIT_US / unit_ns)
        return rig

    try:
        rig = build()
        try:
            # Collections during timing should walk what the run allocates,
            # not the ten thousand accounts set-up left behind.
            gc.collect()
            gc.freeze()
            record = _measure(workload, seconds, trace, Path(out_dir), yardstick)
        finally:
            gc.unfreeze()
            rig.close()
        if not trace:
            # Set-up is a metric of the untraced run: the median of several
            # builds, each at reference speed.  The extra builds come last,
            # so that rss_mb above is the footprint of a process that has
            # built one rig.
            while len(builds) < SETUPS:
                build().close()
            record["metrics"]["setup_s"] = {
                "value": statistics.median(builds_ref),
                "unit": "s",
            }
    finally:
        shutil.rmtree(wal_root, ignore_errors=True)
    record["rig"].update(
        seed=seed,
        commit=commit(),
        python=platform.python_version(),
        nproc=os.cpu_count(),
        setup_builds_s=builds,
        setup_builds_ref_s=builds_ref,
    )
    return dict(workload=name, seed=seed, seconds=seconds, trace=int(trace), **record)


def drive_for(
    workload: Workload, seconds: float, recorder=None, reference=None
) -> List[Segment]:
    """Whole segments until ``seconds`` are up, and at least one."""
    segments = [workload.drive(workload.segment(), recorder, reference)]
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        segments.append(workload.drive(workload.segment(), recorder, reference))
    return segments


def _measure(
    workload: Workload, seconds: float, trace: bool, out_dir: Path, yardstick: Reference
) -> dict:
    rig = workload.rig
    driven = [workload.drive(workload.segment())]  # warm-up: caches fill
    # The prefix: the part of the schedule every run of a seed executes.
    untraced = [workload.drive(workload.segment()) for _ in range(PREFIX_SEGMENTS)]
    digest = workload.schedule_sha256()
    prefix_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    diagnostics: Metrics = {}
    if not trace:
        # The counting pass sits at a fixed place in the schedule, so that
        # what it counts does not depend on how fast the machine is today.
        counter = tracing.CallCounter()
        driven.append(workload.drive(workload.segment(), counter))
        paced = drive_for(workload, seconds, reference=yardstick)
        untraced += paced
        driven += untraced
        metrics = end_to_end(workload, paced, counter, prefix_rss_kb)
        diagnostics = plain_latency(workload, untraced)
    else:
        rec = tracing.SpanRecorder({workload.primary, "portal.begin_soft"})
        uninstall = tracing.install(rig, rec)
        # The counted segments sit at a fixed place in the schedule too.
        before = tracing.read_counts(rig, rec)
        traced = [workload.drive(workload.segment(), rec) for _ in range(PREFIX_SEGMENTS)]
        after = tracing.read_counts(rig, rec)
        counted = list(traced)
        rec.keep = False  # the trace file holds those two; the times use it all
        traced += drive_for(workload, seconds, rec)
        pages = {
            "qr.encode_ms": (0.0, "ms"),
            "qr.decode_ms": (0.0, "ms"),
            "portal.begin_soft_self_us": (0.0, "us"),
        }
        if rig.admin is not None:
            rec.keep = True
            pages = tracing.pairing_pages(workload, rec, PAIRING_PAGES)
        # As long untraced as traced, in one process: the two fast tails
        # that trace.overhead_pct compares are read seconds apart.
        uninstall()
        untraced += drive_for(workload, seconds)
        driven += untraced + traced
        metrics = tracing.layer_metrics(
            workload,
            rec,
            before,
            after,
            sum(seg.ops for seg in counted),
            sum(seg.logins for seg in counted),
            sum(seg.pam_runs for seg in counted),
        )
        metrics.update(tracing.leaf_timings(rig))
        metrics.update(pages)
        metrics.update(plain_latency(workload, untraced))
        plain = tracing.fast_ns(pooled(untraced)[workload.primary])
        metrics["trace.overhead_pct"] = (
            100.0 * (tracing.fast_ns(pooled(traced)[workload.primary]) - plain) / plain,
            "%",
        )
        metrics = dict(sorted(metrics.items()))
        out_dir.mkdir(parents=True, exist_ok=True)
        rec.write(str(out_dir / f"trace_{workload.name}.jsonl"))
    problems = list(workload.mismatches) + workload.checks()
    failed = sum(seg.failed for seg in driven)

    def as_json(block: Metrics) -> dict:
        return {key: {"value": value, "unit": unit} for key, (value, unit) in block.items()}

    return {
        "correct": not problems and failed == 0,
        "attempted": sum(seg.ops for seg in driven),
        "failed": failed,
        "problems": problems,
        "schedule_sha256": digest,
        "segments": len(driven),
        "metrics": as_json(metrics),
        "diagnostics": as_json(diagnostics),
        "rig": dict(
            rig.describe(),
            segment_ops=workload.size,
            primary_op=workload.primary,
            virtual_seconds_per_op=workload.dt,
        ),
    }


def report(record: dict) -> None:
    """Every metric by name with its unit, then the contract's JSON line."""
    name = record["workload"]
    print(f"# {name}  seed={record['seed']}  trace={record['trace']}")
    print(f"# rig {json.dumps(record['rig'], sort_keys=True)}")
    print(f"# schedule_sha256 {record['schedule_sha256']}")
    for block in ("metrics", "diagnostics"):
        for key, metric in record[block].items():
            print(f"{name:18s} {key:36s} {metric['value']:>16.6f} {metric['unit']}")
    for problem in record["problems"]:
        print(f"# CHECK FAILED: {problem}")
    print(
        json.dumps(
            {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in its own process (peak
    RSS and set-up time are per process)."""
    out = Path(args.out) if args.out else OUT / "run.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve())]
            command += ["--workload", name, "--seed", str(args.seed)]
            command += ["--seconds", str(args.seconds), "--trace", str(trace)]
            command += ["--out", str(out)]
            done = subprocess.run(command)
            last = json.loads(out.read_text().splitlines()[-1]) if done.returncode == 0 else {}
            if not last.get("correct"):
                bad += 1
                print(f"# {name} trace={trace}: FAILED", file=sys.stderr)
    print(f"# records appended to {out}; {bad} run(s) failed")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="append the run's full record to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
