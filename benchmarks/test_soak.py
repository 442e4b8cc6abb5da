"""Scenario-diversity soak: every archetype x script x engine combination.

Drives the default scenario matrix (six page archetypes, four user
scripts — see ``repro.scenarios``) through both engine combinations
(chunked and per-unit forwards) and asserts **zero** decision/violation
divergences, zero crashes, and zero script-contract breaches.  Records sessions/sec
and the divergence count into ``bench_summary.json``.

The soak runs **traced**: span tracing is on for every combo, which both
exercises the tracing-changes-nothing contract at soak scale (a traced
fingerprint diverging from an untraced expectation would surface here)
and yields per-stage latency percentiles for ``bench_summary.json``.
Any divergence ships its flight-recorder evidence into the benchmark
results directory.
"""

from __future__ import annotations

import os

from benchmarks.conftest import record_metrics, record_result


def test_soak_scenario_diversity(scale, text_model, image_model):
    from repro.scenarios import default_soak_specs, run_soak

    specs = default_soak_specs()
    seeds = (0, 1) if scale["name"] == "paper" else None
    flight_dir = os.path.join(os.path.dirname(__file__), "results", "flight")
    result = run_soak(
        specs,
        seeds=seeds,
        text_model=text_model,
        image_model=image_model,
        tracing=True,
        flight_dir=flight_dir,
    )

    content = result.summary()
    record_result("soak", content)
    record_metrics(
        "soak",
        {
            "scenarios": result.scenarios,
            "archetypes": len(result.archetypes),
            "combos": len(result.combos),
            "baseline": result.baseline,
            "sessions_total": result.sessions_total,
            "frames_total": result.frames_total,
            "certified_total": result.certified_total,
            "divergences": len(result.divergences),
            "crashes": len(result.crashes),
            "expectation_failures": len(result.expectation_failures),
            "sessions_per_second": round(result.sessions_per_second, 3),
            "forwards_per_combo": result.forwards_per_combo,
            # Baseline-combo per-stage latency percentiles (ms) from the
            # traced run: {stage: {count, mean, p50, p95, p99}}.
            "span_percentiles_ms": {
                stage: {k: round(v, 4) for k, v in snap.items()}
                for stage, snap in result.span_percentiles.items()
            },
            "flight_artifacts": result.flight_artifacts,
        },
    )

    # Every combo drives all twelve sessions of the default matrix.
    assert len(result.combos) == 2, content
    assert all(n >= 12 for n in result.sessions_per_combo.values()), content
    assert len(result.archetypes) >= 6, content
    assert result.ok, content
