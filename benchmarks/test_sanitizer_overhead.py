"""witness-san overhead: soak sessions/sec with the sanitizer on vs off.

Drives the same soak slice twice through the ``batched-inline-frozen``
baseline combo on two threads — once disarmed, once with
:mod:`repro.analysis.sanitizer` armed — and records both rates plus the
relative overhead into ``bench_summary.json``.  The armed run must stay
clean (no lock-order inversions, no unmodeled edges, no cross-thread
workspace-arena checkouts against the static model) and change nothing
observable: same session, frame, and certification counts as the
disarmed run.  The bit-identical fingerprint contract itself is asserted
per-scenario in ``tests/test_analysis_sanitizer.py``; this benchmark
quantifies what arming costs at soak scale.
"""

from __future__ import annotations

from benchmarks.conftest import record_metrics, record_result


def test_sanitizer_overhead(scale, text_model, image_model):
    from repro.analysis import sanitizer
    from repro.scenarios import combo_by_name, default_soak_specs, run_soak

    specs = default_soak_specs()
    if scale["name"] != "paper":
        specs = specs[:4]
    baseline = combo_by_name("batched-inline-frozen")

    def drive():
        return run_soak(
            specs,
            combos=(baseline,),
            text_model=text_model,
            image_model=image_model,
            threads=2,
        )

    off = drive()
    model = sanitizer.static_lock_model()
    with sanitizer.sanitized() as state:
        on = drive()
    problems = state.check(model)
    summary = state.summary()

    off_sps = off.sessions_per_second
    on_sps = on.sessions_per_second
    overhead_pct = (off_sps / on_sps - 1.0) * 100.0 if on_sps > 0 else float("inf")

    content = "\n".join(
        [
            "witness-san overhead (batched-inline-frozen baseline, 2 threads)",
            f"scenarios: {off.scenarios}  sessions: {off.sessions_total}",
            f"sessions/s disarmed: {off_sps:.2f}   armed: {on_sps:.2f}   "
            f"overhead: {overhead_pct:+.1f}%",
            f"armed run: {summary['acquires']} acquisitions, "
            f"{summary['pairs']} distinct order pairs, "
            f"{summary['pool_checks']} arena checkouts, "
            f"{len(problems)} violations",
        ]
    )
    record_result("sanitizer_overhead", content)
    record_metrics(
        "sanitizer_overhead",
        {
            "scenarios": off.scenarios,
            "sessions_total": off.sessions_total,
            "sessions_per_second_off": round(off_sps, 3),
            "sessions_per_second_on": round(on_sps, 3),
            "overhead_pct": round(overhead_pct, 2),
            "acquires": summary["acquires"],
            "order_pairs": summary["pairs"],
            "pool_checks": summary["pool_checks"],
            "violations": len(problems),
        },
    )

    assert off.ok, off.summary()
    assert on.ok, on.summary()
    assert problems == [], problems
    assert summary["acquires"] > 0 and summary["pool_checks"] > 0, summary
    # Arming is observation-only: the soak's outcome accounting must not
    # move by a single session, frame, or certificate.
    assert (on.sessions_total, on.frames_total, on.certified_total) == (
        off.sessions_total,
        off.frames_total,
        off.certified_total,
    )
