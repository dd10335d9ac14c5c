"""Shared helpers for the benchmark harness's machine-readable outputs.

Benchmarks print human-readable tables, but CI also wants comparable
numbers across commits: :func:`emit_bench` writes/merges ``BENCH_*.json``
artifacts (ops/sec, percentiles, population sizes) into ``$BENCH_DIR``,
``bench/`` when it is unset.  The ``BENCH_*.json`` files at the repo root
are committed baselines (``check_regression.py`` compares a fresh run
against them); refreshing one is a deliberate copy, never a side effect
of running a bench.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List

from repro.storage import find_layer, shards_of


def emit_bench(name: str, payload: dict) -> Path:
    """Merge ``payload`` into ``BENCH_<name>.json`` for CI artifact upload.

    Files land in ``$BENCH_DIR`` (or ``bench/`` under the working
    directory, git-ignored).  Merging lets several tests in one module
    contribute sections to the same file.
    """
    directory = Path(os.environ.get("BENCH_DIR", "bench"))
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged.update(payload)
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    return path


def percentile(samples: List[float], q: float) -> float:
    """The q-th percentile (0..100) of a non-empty sample list."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[index]


def slow_every_shard(engine, latency: float):
    """Charge ``latency`` seconds per op on every shard of a built engine
    (the MariaDB round-trip stand-in) and return the engine."""
    for shard in shards_of(engine):
        find_layer(shard, "set_latency").set_latency(latency)
    return engine
