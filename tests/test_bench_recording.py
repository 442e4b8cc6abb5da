"""Benchmark recording: ``bench_summary.json`` survives interrupted writes.

The summary file accumulates every benchmark's metrics across runs; PR 6
made :func:`record_metrics` write it atomically (temp file +
``os.replace``) so a crash mid-``json.dump`` can never truncate the
accumulated record.  These tests kill a write mid-stream — via an
unserializable metric value, the exact failure a buggy benchmark would
inject — and assert the prior file is byte-identical afterwards.

Results are written only under ``REPRO_BENCH_RECORD=1``; a plain run
prints its tables and leaves ``results/`` untouched.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

CONFTEST = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"


def _load_conftest(tmp_path, monkeypatch):
    """The benchmarks conftest loaded standalone, redirected at tmp_path."""
    spec = importlib.util.spec_from_file_location("bench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", str(tmp_path))
    monkeypatch.setattr(module, "SUMMARY_PATH", str(tmp_path / "bench_summary.json"))
    return module


@pytest.fixture()
def recorder(tmp_path, monkeypatch):
    """A recording conftest (``REPRO_BENCH_RECORD=1``)."""
    monkeypatch.setenv("REPRO_BENCH_RECORD", "1")
    return _load_conftest(tmp_path, monkeypatch)


def test_nothing_written_without_record_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("REPRO_BENCH_RECORD", raising=False)
    module = _load_conftest(tmp_path, monkeypatch)
    module.record_result("table_x", "| a | b |")
    module.record_metrics("bench_a", {"p50_ms": 1.5})
    assert list(tmp_path.iterdir()) == []
    assert "| a | b |" in capsys.readouterr().out  # the table is still printed


def test_record_result_writes_table(recorder, tmp_path):
    path = pathlib.Path(recorder.record_result("table_x", "| a | b |"))
    assert path == tmp_path / "table_x.txt"
    assert path.read_text() == "| a | b |\n"


def test_record_metrics_round_trip(recorder):
    path = recorder.record_metrics("bench_a", {"p50_ms": 1.5})
    recorder.record_metrics("bench_b", {"qps": 300})
    data = json.loads(pathlib.Path(path).read_text())
    assert data == {"bench_a": {"p50_ms": 1.5}, "bench_b": {"qps": 300}}


def test_interrupted_write_preserves_prior_summary(recorder):
    path = pathlib.Path(recorder.record_metrics("bench_a", {"p50_ms": 1.5}))
    before = path.read_text()
    # A bare object() is not JSON-serializable: json.dump dies after it
    # has already emitted a partial document to its stream.
    with pytest.raises(TypeError):
        recorder.record_metrics("bench_b", {"handle": object()})
    assert path.read_text() == before
    # and the failed attempt leaves no temp-file litter behind.
    leftovers = [p.name for p in path.parent.iterdir() if p.name != path.name]
    assert leftovers == []


def test_interrupted_first_write_leaves_no_file(recorder, tmp_path):
    with pytest.raises(TypeError):
        recorder.record_metrics("bench_a", {"handle": object()})
    assert not (tmp_path / "bench_summary.json").exists()
    assert list(tmp_path.iterdir()) == []


def test_corrupt_summary_is_rebuilt(recorder, tmp_path):
    (tmp_path / "bench_summary.json").write_text("{ not json")
    path = recorder.record_metrics("bench_a", {"p50_ms": 1.5})
    assert json.loads(pathlib.Path(path).read_text()) == {"bench_a": {"p50_ms": 1.5}}
