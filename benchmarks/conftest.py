"""Benchmark fixtures and result recording.

Every benchmark regenerates one of the paper's tables or figures.  The
formatted reproduction table is always printed; with
``REPRO_BENCH_RECORD=1`` it is also written to
``benchmarks/results/<name>.txt`` (and its key metrics merged into
``bench_summary.json``).  Without it nothing under ``results/`` is
touched, so a plain test run never rewrites the tracked record.

Scale knob: ``REPRO_BENCH_SCALE`` (default ``small``) controls dataset
sizes so the whole suite stays laptop-friendly; ``paper`` uses sizes
closer to the original evaluation.
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: Machine-readable per-benchmark key metrics, merged benchmark-by-
#: benchmark so the perf trajectory stays diffable across PRs.
SUMMARY_PATH = os.path.join(RESULTS_DIR, "bench_summary.json")

SCALES = {
    "small": {
        "jotform_pages": 12,
        "clickbench_samples": 12,
        "robustness_samples": 36,
        "attack_steps": 12,
        "single_font_models": 2,
        "perf_pages": 6,
    },
    "paper": {
        "jotform_pages": 100,
        "clickbench_samples": 40,
        "robustness_samples": 120,
        "attack_steps": 20,
        "single_font_models": 5,
        "perf_pages": 20,
    },
}


def bench_scale() -> dict:
    name = os.environ.get("REPRO_BENCH_SCALE", "small")
    if name not in SCALES:
        raise ValueError(f"unknown bench scale {name!r}")
    return dict(SCALES[name], name=name)


@pytest.fixture(scope="session")
def scale():
    return bench_scale()


@pytest.fixture(scope="session")
def text_model():
    from repro.nn.zoo import get_text_model

    return get_text_model("base")


@pytest.fixture(scope="session")
def image_model():
    from repro.nn.zoo import get_image_model

    return get_image_model()


def recording() -> bool:
    """Whether this run re-records ``results/`` (``REPRO_BENCH_RECORD=1``)."""
    return os.environ.get("REPRO_BENCH_RECORD") == "1"


def record_result(name: str, content: str) -> str:
    """Print a reproduction table; persist it under results/ when recording."""
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    if not recording():
        print(f"\n{content}\n[not recorded: set REPRO_BENCH_RECORD=1 to write {path}]")
        return path
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(content.rstrip() + "\n")
    print(f"\n{content}\n[written to {path}]")
    return path


def record_metrics(name: str, metrics: dict) -> str:
    """Merge one benchmark's key metrics into ``bench_summary.json``.

    Only when recording (``REPRO_BENCH_RECORD=1``); otherwise a no-op
    that still returns the summary's path.

    Each benchmark owns one top-level key; re-running a single benchmark
    updates only its own entry, so the summary accumulates across partial
    runs and its diffs track the perf trajectory PR over PR.

    The write is atomic (temp file + ``os.replace``): the summary is the
    accumulated record of *every prior* benchmark run, so a crash or an
    unserializable metric mid-dump must never truncate it.
    """
    if not recording():
        return SUMMARY_PATH
    os.makedirs(RESULTS_DIR, exist_ok=True)
    data: dict = {}
    if os.path.exists(SUMMARY_PATH):
        try:
            with open(SUMMARY_PATH) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            data = {}
    data[name] = metrics
    fd, tmp_path = tempfile.mkstemp(
        dir=RESULTS_DIR, prefix=".bench_summary.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp_path, SUMMARY_PATH)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return SUMMARY_PATH
