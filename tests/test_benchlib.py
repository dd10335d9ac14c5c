"""``benchmarks/benchlib.py``: a bench run never rewrites a committed baseline."""

import importlib.util
import json
from pathlib import Path

BENCHLIB = Path(__file__).resolve().parent.parent / "benchmarks" / "benchlib.py"


def load_benchlib():
    spec = importlib.util.spec_from_file_location("benchlib", BENCHLIB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_emit_bench_leaves_the_working_directory_alone(tmp_path, monkeypatch):
    """With ``BENCH_DIR`` unset, a bench run from the repo root used to
    merge into the committed ``BENCH_<name>.json`` there."""
    baseline = tmp_path / "BENCH_x.json"
    baseline.write_text('{"committed": 1}\n')
    monkeypatch.delenv("BENCH_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    path = load_benchlib().emit_bench("x", {"measured": 2})
    assert baseline.read_text() == '{"committed": 1}\n'
    assert path.resolve() == tmp_path / "bench" / "BENCH_x.json"
    assert json.loads(path.read_text()) == {"measured": 2}


def test_emit_bench_merges_into_bench_dir(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("BENCH_DIR", str(out))
    benchlib = load_benchlib()
    benchlib.emit_bench("x", {"a": 1})
    path = benchlib.emit_bench("x", {"b": 2})
    assert path == out / "BENCH_x.json"
    assert json.loads(path.read_text()) == {"a": 1, "b": 2}
