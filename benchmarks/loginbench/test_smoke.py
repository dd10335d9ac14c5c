"""Smoke test: all four workloads and their traced runs, at toy scale.

    PYTHONPATH=src python -m pytest -q benchmarks/loginbench/test_smoke.py

500 accounts, short segments — a few seconds in all.
It checks the *shape* of the benchmark (every metric BENCHMARK.json names
is printed with that unit, outcomes are all as expected, the trace files
parse and every span's parent exists), never a speed.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMALL = dict(seconds=0.0, accounts=500, scale=0.1)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("loginbench")
    return {
        (workload["name"], trace): run.run_workload(
            workload["name"], seed=7, trace=bool(trace), out_dir=out, **SMALL
        )
        for workload in BENCH["workloads"]
        for trace in (0, 1)
    }, out


def test_contract_shape():
    assert BENCH["paths"] == ["benchmarks/loginbench"]
    assert {w["name"] for w in BENCH["workloads"]} == set(run.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in BENCH["end_to_end"])
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace,block", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(records, trace, block):
    for workload in BENCH["workloads"]:
        record = records[0][(workload["name"], trace)]
        expected = {m["name"]: m["unit"] for m in BENCH[block]}
        reported = {k: v["unit"] for k, v in record["metrics"].items()}
        assert reported == expected, workload["name"]


def test_untraced_runs_carry_the_plain_latencies(records):
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for workload in BENCH["workloads"]:
        record = records[0][(workload["name"], 0)]
        plain = record["diagnostics"]
        assert {name for name in per_layer if name.startswith("e2e.")} == set(plain)
        assert all(per_layer[name] == metric["unit"] for name, metric in plain.items())
        assert record["metrics"]["p50_ref_us"]["value"] > 0


def test_every_outcome_is_as_expected(records):
    for key, record in records[0].items():
        assert record["correct"], (key, record["problems"])
        assert record["failed"] == 0 and record["attempted"] > 0
        assert len(record["schedule_sha256"]) == 64


def test_bypass_and_backend_workloads_skip_the_other_tier(records):
    bypass = records[0][("login_bypass", 1)]["metrics"]
    assert bypass["radius.requests_per_login"]["value"] == 0
    assert bypass["otpserver.validate_self_us"]["value"] == 0
    backend = records[0][("validate_backend", 1)]["metrics"]
    assert backend["directory.ldap_search_us"]["value"] == 0
    assert backend["storage.wal_bytes_per_op"]["value"] > 0
    mfa = records[0][("login_mfa", 1)]["metrics"]
    assert mfa["directory.ldap_searches_per_login"]["value"] >= 1


def test_budget_closes(records):
    """The layer rows account for the primary op's traced latency: what no
    reported span saw (the driver's own span included) stays under 15 %."""
    for workload in BENCH["workloads"]:
        metrics = records[0][(workload["name"], 1)]["metrics"]
        assert 0 <= metrics["trace.unattributed_pct"]["value"] < 15, workload["name"]
    backend = records[0][("validate_backend", 1)]["metrics"]
    assert backend["core.backend_self_us"]["value"] > 0
    assert backend["ingest.queue_self_us"]["value"] > 0
    churn = records[0][("admin_churn", 1)]["metrics"]
    assert churn["otpserver.admin_client_self_us"]["value"] > 0


def test_a_span_without_a_row_opens_the_budget(records, tmp_path, monkeypatch):
    """The closing check can fail: time under a span name that has no row
    in the per-layer block is nobody's."""
    spans = tuple(name for name in run.tracing.SELF_SPANS if name != "authflow.pipeline")
    monkeypatch.setattr(run.tracing, "REPORTED_SPANS", frozenset(spans + run.tracing.CALL_SPANS))
    record = run.run_workload("validate_backend", seed=7, trace=True, out_dir=tmp_path, **SMALL)
    closed = records[0][("validate_backend", 1)]["metrics"]["trace.unattributed_pct"]["value"]
    assert record["metrics"]["trace.unattributed_pct"]["value"] > closed + 5


def test_trace_files_parse_and_parents_exist(records):
    for workload in BENCH["workloads"]:
        path = records[1] / f"trace_{workload['name']}.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        ids = {span["span"] for span in spans}
        assert spans and len(ids) == len(spans)
        for span in spans:
            assert span["parent"] is None or span["parent"] in ids
            assert span["end_ns"] >= span["start_ns"]


def test_same_seed_same_schedule_and_counts(records, tmp_path):
    again = run.run_workload("validate_backend", seed=7, trace=True, out_dir=tmp_path, **SMALL)
    first = records[0][("validate_backend", 1)]
    assert first["schedule_sha256"] == again["schedule_sha256"]
    files = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]

    def compared(commit, moved=0.0):
        for path, record in zip(files, (first, again)):
            record = json.loads(json.dumps(record))
            record["rig"]["commit"] = commit
            record["metrics"]["storage.ops_per_op"]["value"] += moved
            moved = 0.0
            path.write_text(json.dumps(record) + "\n")
        return compare.main([str(path) for path in files])

    # One clean commit: every count must repeat, and does.
    assert compared("0123456789ab") == 0
    assert compared("0123456789ab", moved=1.0) == 1
    # An uncommitted tree may hold any program: a moved count is not an error.
    assert compared("0123456789ab-dirty", moved=1.0) == 0
