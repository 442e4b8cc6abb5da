"""Fault soak: Table III companion — robustness under injected faults.

The paper's Table III measures model robustness under adversarial
*inputs*; this companion measures pipeline robustness under injected
*infrastructure* faults.  Every shipped :class:`repro.faults.FaultPlan`
(frame drop/corruption, forward raise, NaN logits, cache fault) replays
the scenario grid under the ``batched-inline-frozen`` baseline and the
fail-closed contract is asserted:

* a tampered session NEVER certifies, under any plan (zero fail-open);
* honest sessions under recoverable plans stay bit-identical to the
  fault-free run; under evidence-perturbing plans they still certify;
  under corruption plans they refuse cleanly.

Also measures the disarmed-seam overhead: an armed injector's miss on a
cold point (the per-frame cost every seam pays when its point is not
scheduled), recorded as ns/op next to the robustness counters in
``bench_summary.json``.
"""

from __future__ import annotations

import time

from benchmarks.conftest import record_metrics, record_result


def _fault_specs(scale):
    from repro.scenarios import ScenarioSpec, default_soak_specs

    if scale["name"] == "paper":
        return default_soak_specs()
    # Small scale: two archetypes, every behaviour that matters to the
    # fail-closed contract (honest certify, tampered refuse, abandoning
    # no-decision).
    return [
        ScenarioSpec("tall-form", script="honest"),
        ScenarioSpec("tall-form", script="tampered"),
        ScenarioSpec("dashboard", script="honest"),
        ScenarioSpec("dashboard", script="abandoning"),
    ]


def _disarmed_decide_ns(iterations: int = 200_000) -> float:
    """ns/op of the injector's fast-miss on an unscheduled point."""
    from repro.faults import FaultInjector, cache_fault_plan

    injector = FaultInjector(cache_fault_plan())
    t0 = time.perf_counter()
    for _ in range(iterations):
        injector.decide("infer.raise")
    return (time.perf_counter() - t0) / iterations * 1e9


def test_fault_soak_fail_closed(scale, text_model, image_model):
    from repro.faults import shipped_plans
    from repro.scenarios import combo_by_name, run_soak

    combo = combo_by_name("batched-inline-frozen")
    plans = shipped_plans()
    result = run_soak(
        _fault_specs(scale),
        combos=(combo,),
        baseline=combo,
        text_model=text_model,
        image_model=image_model,
        faults=plans,
    )
    decide_ns = _disarmed_decide_ns()

    rows = [
        "Table III companion — fail-closed robustness under injected faults",
        "",
        f"{'plan':<20} {'expect':<10} {'fired':>5} {'sessions':>8} "
        f"{'certified':>9} {'refused':>7} {'quarantined':>11}",
    ]
    for plan in plans:
        stats = result.fault_stats[plan.name]
        rows.append(
            f"{plan.name:<20} {stats['expectation']:<10} {stats['faults_injected']:>5} "
            f"{stats['sessions']:>8} {stats['certified']:>9} {stats['refused']:>7} "
            f"{stats['health']['quarantined_sessions']:>11}"
        )
    rows += [
        "",
        f"fault failures: {len(result.fault_failures)} (fail-open certifications, "
        "expectation breaches, crashes)",
        f"disarmed-seam decide miss: {decide_ns:.0f} ns/op",
        "",
        "Contract: tampered sessions never certify under any plan; recoverable",
        "plans leave honest fingerprints bit-identical; corruption plans refuse",
        "cleanly.",
    ]
    content = "\n".join(rows + [f"  FAULT-FAILURE {s} under {p}: {d}" for p, s, d in result.fault_failures])
    record_result("table3_robustness_faults", content)

    per_plan = {
        plan.name: {
            "expectation": stats["expectation"],
            "faults_injected": stats["faults_injected"],
            "sessions": stats["sessions"],
            "certified": stats["certified"],
            "refused": stats["refused"],
            "quarantined_sessions": stats["health"]["quarantined_sessions"],
        }
        for plan, stats in ((p, result.fault_stats[p.name]) for p in plans)
    }
    record_metrics(
        "table3_robustness_faults",
        {
            "plans": len(plans),
            "scenarios": result.scenarios,
            "fault_failures": len(result.fault_failures),
            "fail_open_certifications": sum(
                "FAIL-OPEN" in detail for _, _, detail in result.fault_failures
            ),
            "faults_injected_total": sum(
                s["faults_injected"] for s in result.fault_stats.values()
            ),
            "disarmed_decide_ns": round(decide_ns, 1),
            "per_plan": per_plan,
            "wall_seconds": round(result.wall_seconds, 2),
        },
    )

    # The acceptance contract, plan by plan.
    assert result.ok, result.summary()
    assert not result.fault_failures, result.summary()
    assert set(result.fault_stats) == {p.name for p in plans}
    # The recoverable plans really fire: the retry and the cache-miss
    # fallback are exercised, not skipped.
    assert result.fault_stats["forward-raise"]["faults_injected"] == 1
    assert result.fault_stats["cache-fault"]["faults_injected"] >= 1
    for refusing in ("frame-corruption", "nan-logits"):
        stats = result.fault_stats[refusing]
        assert stats["certified"] == 0 and stats["refused"] >= 1, refusing
    assert result.fault_stats["frame-drop"]["certified"] >= 1
