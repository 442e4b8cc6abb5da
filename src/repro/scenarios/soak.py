"""The deterministic scenario-diversity soak driver.

The witness computes every verdict on one forward path with two chunk
sizes: chunked forwards of up to ``PREDICT_CHUNK`` unit inputs (the
paper's GPU setup) and one unit per forward (its CPU setup).
Correctness claims only hold if they *agree* — on every display
condition a guest can produce.  ``run_soak`` is the machinery that
proves it:

* each :class:`~repro.scenarios.spec.ScenarioSpec` is instantiated
  deterministically and driven through **every engine combination** in
  :data:`ENGINE_COMBOS`;
* each run is reduced to a :func:`session_fingerprint` — the decision,
  the server-side verification verdict, the submitted body, and every
  frame's (ok, offset, failures, violations) — scrubbed of
  engine-dependent observability counters (plan sizes, forward counts,
  wall-clock timings) and per-run nonces (session ids);
* any fingerprint mismatch or crash is reported as a divergence.

Fingerprints are bit-comparable because the whole simulation is virtual-
clock deterministic: pinned sampler seeds, seeded user jitter, seeded
page generation.  Wall time never enters a fingerprint.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field

from repro.core.service import WitnessConfig, WitnessService
from repro.obs.spans import span_snapshots
from repro.crypto.ca import CertificateAuthority
from repro.scenarios.pages import ARCHETYPES
from repro.scenarios.scripts import run_script
from repro.scenarios.spec import Scenario, ScenarioSpec
from repro.server.webserver import WebServer, connect_guest


@dataclass(frozen=True)
class EngineCombo:
    """One way the witness can compute verdicts."""

    name: str
    batched: bool

    def config(self, base: WitnessConfig | None = None) -> WitnessConfig:
        base = base or WitnessConfig()
        return base.replace(batched=self.batched)


#: Every engine combination; the first is the soak's default baseline.
#: Names keep the full engine description: every session validates
#: inline on its own thread with the frozen inference engine.
ENGINE_COMBOS = (
    EngineCombo("batched-inline-frozen", batched=True),
    EngineCombo("sequential-inline-frozen", batched=False),
)


def combo_by_name(name: str) -> EngineCombo:
    for combo in ENGINE_COMBOS:
        if combo.name == name:
            return combo
    raise KeyError(f"unknown engine combo {name!r}")


# -- fingerprints ----------------------------------------------------------


def _frame_fingerprint(outcome) -> tuple:
    return (
        outcome.index,
        round(outcome.sampled_at_ms, 6),
        outcome.ok,
        outcome.offset_y,
        outcome.skipped_unchanged,
        tuple((f.kind, tuple(f.rect), f.reason) for f in outcome.failures),
        tuple((v.rule, v.detail) for v in outcome.new_violations),
    )


def session_fingerprint(decision, report, body: dict | None, server_verified) -> tuple:
    """The engine-independent identity of one witnessed session.

    Everything here must be bit-identical across engine combinations;
    plan sizes, forward counts and wall-clock timings are deliberately
    excluded (they are *supposed* to differ between engines), as is the
    per-run ``session_id`` nonce.
    """
    return (
        None if decision is None else (decision.certified, decision.reason),
        server_verified,
        None
        if body is None
        else tuple(sorted((k, str(v)) for k, v in body.items() if k != "session_id")),
        report.display_ok,
        tuple(_frame_fingerprint(o) for o in report.outcomes),
    )


@dataclass
class ScenarioOutcome:
    """One scenario instance driven under one engine combination."""

    spec: ScenarioSpec
    combo: str
    fingerprint: tuple
    sessions: int
    frames: int
    certified: int
    #: Model forwards the scenario's sessions were charged (engine-
    #: dependent by design — excluded from the fingerprint).
    forwards: int = 0
    expectation_failures: list = field(default_factory=list)
    #: Witness session ids this scenario consumed (per-run nonces — never
    #: fingerprinted).  Lets the soak driver pull exactly this scenario's
    #: frames back out of the service's flight recorder on divergence.
    session_ids: list = field(default_factory=list)


def _expectation_failures(spec: ScenarioSpec, fingerprints: tuple) -> list:
    """Check the script's contract: honest users certify (and the server
    accepts the request), tampered sessions never certify, abandoned
    sessions never reach a decision."""
    failures = []
    for i, (decision, verified, _body, _display_ok, _frames) in enumerate(fingerprints):
        if spec.script in ("honest", "slow-typist"):
            if decision is None or not decision[0]:
                failures.append(f"session {i}: honest session did not certify ({decision})")
            elif verified is not True:
                failures.append(f"session {i}: certified request failed server verification")
        elif spec.script == "tampered":
            if decision is not None and decision[0]:
                failures.append(f"session {i}: tampered session was certified")
        elif spec.script == "abandoning":
            if decision is not None:
                failures.append(f"session {i}: abandoned session produced a decision")
    return failures


def _fault_expectation_failures(plan, spec: ScenarioSpec, base_fingerprint, fingerprint) -> list:
    """The fail-closed contract of one scenario under one fault plan.

    Tampered sessions must never certify — a fault that lets one through
    is fail-open, the breach the whole ladder exists to prevent.
    Abandoning sessions still reach no decision.  Honest (and
    slow-typist) sessions follow the plan's ``honest_expectation``:
    ``identical`` (recoverable — the whole scenario fingerprint must be
    bit-equal to the fault-free run), ``certify`` (evidence collection
    perturbed, so fingerprints may differ, but the session certifies and
    the server verifies), or ``refuse`` (a clean refuse-to-certify
    decision, never a wedge or an unearned certification).
    """
    failures = []
    for i, (decision, verified, _body, _display_ok, _frames) in enumerate(fingerprint):
        if spec.script == "tampered":
            if decision is not None and decision[0]:
                failures.append(
                    f"session {i}: FAIL-OPEN: tampered session certified under faults"
                )
        elif spec.script == "abandoning":
            if decision is not None:
                failures.append(f"session {i}: abandoned session produced a decision")
        elif spec.script in ("honest", "slow-typist"):
            if plan.honest_expectation == "certify":
                if decision is None or not decision[0]:
                    failures.append(
                        f"session {i}: honest session did not certify ({decision})"
                    )
                elif verified is not True:
                    failures.append(
                        f"session {i}: certified request failed server verification"
                    )
            elif plan.honest_expectation == "refuse":
                if decision is None:
                    failures.append(f"session {i}: honest session reached no decision")
                elif decision[0]:
                    failures.append(
                        f"session {i}: honest session certified despite an "
                        "unrecoverable fault plan"
                    )
    if plan.honest_expectation == "identical":
        # Recoverable faults must be invisible in the evidence: the whole
        # scenario — tampered and abandoning sessions included — replays
        # bit-identically against the fault-free baseline.
        if base_fingerprint is None:
            failures.append("no fault-free baseline fingerprint to compare against")
        elif fingerprint != base_fingerprint:
            failures.append(
                "fingerprint diverged from fault-free run: "
                + _describe_divergence(base_fingerprint, fingerprint)
            )
    return failures


@dataclass(frozen=True)
class Divergence:
    """Two engine combinations disagreed on one scenario."""

    scenario: str
    baseline: str
    combo: str
    detail: str


@dataclass(frozen=True)
class Crash:
    """One scenario run died instead of producing a fingerprint."""

    scenario: str
    combo: str
    error: str


@dataclass
class SoakResult:
    """Everything one soak produced."""

    combos: tuple
    baseline: str
    scenarios: int
    archetypes: tuple
    sessions_total: int
    frames_total: int
    certified_total: int
    sessions_per_combo: dict
    #: Total model forwards per engine combination.  Decisions are
    #: bit-identical across combos; this is where the combos are
    #: *supposed* to differ (batched combos chunk, sequential ones run a
    #: forward per unit) — surfaced so the soak also documents the cost
    #: spread.
    forwards_per_combo: dict = field(default_factory=dict)
    divergences: list = field(default_factory=list)
    crashes: list = field(default_factory=list)
    #: ``(scenario, combo, detail)`` script-contract breaches — an honest
    #: session that did not certify, a tampered one that did, etc.
    expectation_failures: list = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Per-stage latency percentiles from the *baseline* combo's traced
    #: run: ``{stage: {count, mean, p50, p95, p99}}``.  Empty unless the
    #: soak ran with ``tracing=True``.
    span_percentiles: dict = field(default_factory=dict)
    #: Paths of divergence flight-recorder artifacts written this soak
    #: (``tracing=True`` plus ``flight_dir`` and at least one divergence).
    flight_artifacts: list = field(default_factory=list)
    #: Names of the fault plans driven (``run_soak(faults=...)``).
    fault_plans: tuple = ()
    #: ``(plan, scenario, detail)`` fail-closed contract breaches under a
    #: fault plan: a tampered session that certified (fail-open — the
    #: critical one), an honest session that diverged from its plan's
    #: expectation, or a crash during a faulted pass.
    fault_failures: list = field(default_factory=list)
    #: Per-plan accounting: injector fires per point, service health,
    #: sessions/certified/refused, wall seconds.
    fault_stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            not self.divergences
            and not self.crashes
            and not self.expectation_failures
            and not self.fault_failures
        )

    @property
    def sessions_per_second(self) -> float:
        return self.sessions_total / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def summary(self) -> str:
        lines = [
            f"soak: {self.scenarios} scenarios x {len(self.combos)} engine combos "
            f"({', '.join(self.combos)})",
            f"archetypes: {', '.join(self.archetypes)}",
            f"sessions: {self.sessions_total} total ({self.certified_total} certified), "
            f"{self.frames_total} frames, {self.wall_seconds:.1f}s wall "
            f"({self.sessions_per_second:.2f} sessions/s)",
            "forwards: "
            + ", ".join(f"{name}={n}" for name, n in self.forwards_per_combo.items()),
            f"divergences: {len(self.divergences)}  crashes: {len(self.crashes)}  "
            f"expectation failures: {len(self.expectation_failures)}",
        ]
        if self.fault_plans:
            fired = sum(s.get("faults_injected", 0) for s in self.fault_stats.values())
            lines.append(
                f"fault plans: {', '.join(self.fault_plans)} "
                f"({fired} faults injected, {len(self.fault_failures)} failures)"
            )
        frame = self.span_percentiles.get("frame")
        if frame:
            lines.append(
                f"frame latency (baseline, traced): p50={frame['p50']:.2f}ms "
                f"p95={frame['p95']:.2f}ms p99={frame['p99']:.2f}ms "
                f"over {frame['count']} frames"
            )
        for d in self.divergences:
            lines.append(f"  DIVERGED {d.scenario}: {d.combo} vs {d.baseline}: {d.detail}")
        for c in self.crashes:
            lines.append(f"  CRASHED {c.scenario} under {c.combo}: {c.error}")
        for scenario, combo, detail in self.expectation_failures:
            lines.append(f"  UNEXPECTED {scenario} under {combo}: {detail}")
        for plan, scenario, detail in self.fault_failures:
            lines.append(f"  FAULT-FAILURE {scenario} under plan {plan}: {detail}")
        for path in self.flight_artifacts:
            lines.append(f"  flight artifact: {path}")
        return "\n".join(lines)


# -- driving ---------------------------------------------------------------


def run_scenario(scenario: Scenario, service: WitnessService, server: WebServer | None = None) -> ScenarioOutcome:
    """Drive one scenario instance against ``service``; returns its outcome.

    Builds a fresh guest (machine, browser, extension, session handle)
    per wizard step, pins the witness sampling seed from the scenario so
    the schedule replays identically under every engine, and reduces the
    whole flow to a fingerprint.
    """
    if server is None:
        server = WebServer(service.ca)
    for page_id, page in scenario.pages:
        server.register_page(page_id, page)

    fingerprints = []
    session_ids = []
    sessions = frames = certified = forwards = 0
    for step, (page_id, _page) in enumerate(scenario.pages):
        client = connect_guest(
            server,
            service,
            page_id,
            display=scenario.display,
            stack=scenario.stack,
            sampler_seed=scenario.step_sampler_seed(step),
        )
        try:
            session_ids.append(client.witness.id)
            body = run_script(scenario, step, client.browser, client.vspec)
            if body is None:
                report = client.witness.report
                fingerprints.append(session_fingerprint(None, report, None, None))
            else:
                decision = client.extension.end_session(body)
                report = client.witness.report
                verified = (
                    bool(server.verify(decision.request)) if decision.request else None
                )
                fingerprints.append(session_fingerprint(decision, report, body, verified))
                certified += int(decision.certified)
            sessions += 1
            frames += report.frames_sampled
            forwards += report.text_forwards + report.image_forwards
        finally:
            client.close()
    return ScenarioOutcome(
        spec=scenario.spec,
        combo="",
        fingerprint=tuple(fingerprints),
        sessions=sessions,
        frames=frames,
        certified=certified,
        forwards=forwards,
        expectation_failures=_expectation_failures(scenario.spec, tuple(fingerprints)),
        session_ids=session_ids,
    )


def _expand_specs(specs, seeds) -> list:
    grid = []
    for spec in specs:
        if isinstance(spec, str):
            spec = ScenarioSpec(archetype=spec)
        if seeds is None:
            grid.append(spec)
        else:
            grid.extend(spec.with_seed(spec.seed + s) for s in seeds)
    return grid


def _describe_divergence(base: tuple, other: tuple) -> str:
    """The first structural difference between two scenario fingerprints."""
    if len(base) != len(other):
        return f"session count {len(other)} != {len(base)}"
    names = ("decision", "server-verified", "body", "display_ok", "frames")
    for s, (bs, os_) in enumerate(zip(base, other)):
        for part, bp, op in zip(names, bs, os_):
            if bp == op:
                continue
            if part == "frames":
                if len(bp) != len(op):
                    return f"session {s}: frame count {len(op)} != {len(bp)}"
                fields = (
                    "index", "sampled_at_ms", "ok", "offset_y",
                    "skipped_unchanged", "failures", "violations",
                )
                for i, (bf, of_) in enumerate(zip(bp, op)):
                    for fname, bv, ov in zip(fields, bf, of_):
                        if bv != ov:
                            return (
                                f"session {s} frame {i}: {fname} differs: "
                                f"{ov!r} != {bv!r}"[:400]
                            )
            return f"session {s}: {part} differs: {op!r} != {bp!r}"[:400]
    return "fingerprints differ (structure)"


def _slug(text: str) -> str:
    return re.sub(r"[^a-zA-Z0-9_.-]+", "-", text).strip("-")


def _scenario_frames(ring: list, outcome) -> list:
    """The frame traces of one scenario, out of a combo's flight ring.

    The ring is bounded: frames of an early scenario may have been
    evicted by later ones — the artifact then carries whatever evidence
    survived (possibly none), never another scenario's frames.
    """
    if outcome is None:
        return []
    wanted = set(outcome.session_ids)
    return [f for f in ring if f.get("session_id") in wanted]


def run_soak(
    specs,
    *,
    seeds=None,
    combos=ENGINE_COMBOS,
    baseline: EngineCombo | str | None = None,
    text_model=None,
    image_model=None,
    config: WitnessConfig | None = None,
    threads: int = 1,
    tracing: bool = False,
    flight_dir: str | None = None,
    faults=None,
) -> SoakResult:
    """Drive every scenario through every engine combination and compare.

    Args:
        specs: :class:`ScenarioSpec` instances (or archetype names, which
            become honest-script specs at seed 0).
        seeds: optional seed offsets; each spec expands to one instance
            per seed (``None`` keeps the specs as given).
        combos: the engine combinations to cross-check.
        baseline: the reference combo (name or instance); defaults to the
            first of ``combos``.  Every other combo is compared to it.
        config: base :class:`WitnessConfig`; each combo's ``batched``
            field is overlaid on it.
        threads: drive this many scenario fleets concurrently within each
            combo (>=2 exercises concurrent sessions sharing one service
            and its digest cache; fingerprints must *still* match).
        tracing: run every combo with span tracing on.  Fingerprints are
            compared exactly as without — tracing changing any of them IS
            a divergence.  The baseline combo's per-stage percentiles land
            in ``SoakResult.span_percentiles``.
        flight_dir: with ``tracing``, write a JSON flight-recorder
            artifact here per divergence, carrying the diverging
            scenario's last-N frame traces from both sides.
        faults: a :class:`repro.faults.FaultPlan` (or an iterable of
            them).  After the fault-free pass, the whole grid replays
            under the *baseline* combo once per plan with the injector
            armed, checking the fail-closed contract
            (:func:`_fault_expectation_failures`): tampered sessions
            never certify, honest sessions follow the plan's
            ``honest_expectation`` — ``identical`` plans must reproduce
            the fault-free fingerprints bit-for-bit.  Faulted passes compare only
            within their own combo — cross-combo fingerprints are not
            meaningful under faults.

    Returns a :class:`SoakResult`; ``result.ok`` is the soak's verdict.
    """
    if text_model is None or image_model is None:
        from repro.nn.zoo import get_image_model, get_text_model

        text_model = text_model or get_text_model("base")
        image_model = image_model or get_image_model()

    grid = _expand_specs(specs, seeds)
    if isinstance(baseline, str):
        baseline = combo_by_name(baseline)
    combos = tuple(combos)
    if baseline is None:
        baseline = combos[0]
    elif baseline not in combos:
        combos = (baseline,) + tuple(c for c in combos if c != baseline)
    ordered = (baseline,) + tuple(c for c in combos if c != baseline)

    outcomes: dict = {}  # combo name -> {spec.key -> ScenarioOutcome}
    forwards_per_combo: dict = {}
    flight_rings: dict = {}  # combo name -> [FrameTrace dicts], oldest first
    span_percentiles: dict = {}
    crashes: list = []
    t0 = time.perf_counter()
    for combo in ordered:
        ca = CertificateAuthority()
        cfg = combo.config(config)
        if tracing:
            # A larger ring than the service default: a soak drives dozens
            # of sessions per combo and the diverging scenario may not be
            # the last one driven.  Violation auto-dumps stay off
            # (flight_dir is service-level); the soak writes its own
            # divergence artifacts below.
            cfg = cfg.replace(tracing=True, flight_frames=max(cfg.flight_frames, 512))
        service = WitnessService(
            ca, cfg, text_model=text_model, image_model=image_model
        )
        per_combo: dict = {}

        def drive(spec: ScenarioSpec):
            try:
                outcome = run_scenario(spec.build(), service)
                outcome.combo = combo.name
                per_combo[spec.key] = outcome
            except Exception as exc:  # noqa: BLE001 - a crash IS a finding
                crashes.append(Crash(spec.key, combo.name, f"{type(exc).__name__}: {exc}"))

        with service:
            if threads > 1:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(max_workers=threads) as pool:
                    list(pool.map(drive, grid))
            else:
                for spec in grid:
                    drive(spec)
        outcomes[combo.name] = per_combo
        if tracing:
            recorder = service.flight_recorder
            flight_rings[combo.name] = (
                recorder.snapshot() if recorder is not None else []
            )
            if combo == baseline:
                span_percentiles = {
                    stage: {
                        "count": snap["count"],
                        "mean": snap["mean"],
                        "p50": snap["p50"],
                        "p95": snap["p95"],
                        "p99": snap["p99"],
                    }
                    for stage, snap in span_snapshots(service.span_metrics).items()
                }
        forwards_per_combo[combo.name] = sum(o.forwards for o in per_combo.values())
    divergences: list = []
    base_outcomes = outcomes[baseline.name]
    for combo in ordered[1:]:
        for key, outcome in outcomes[combo.name].items():
            base = base_outcomes.get(key)
            if base is None:
                continue  # baseline crashed; already reported
            if outcome.fingerprint != base.fingerprint:
                divergences.append(
                    Divergence(
                        scenario=key,
                        baseline=baseline.name,
                        combo=combo.name,
                        detail=_describe_divergence(base.fingerprint, outcome.fingerprint),
                    )
                )

    flight_artifacts: list = []
    if tracing and flight_dir and divergences:
        os.makedirs(flight_dir, exist_ok=True)
        for d in divergences:
            payload = {
                "reason": f"fingerprint-divergence: {d.detail}",
                "scenario": d.scenario,
                "baseline": {
                    "combo": d.baseline,
                    "frames": _scenario_frames(
                        flight_rings.get(d.baseline, []), base_outcomes.get(d.scenario)
                    ),
                },
                "diverged": {
                    "combo": d.combo,
                    "frames": _scenario_frames(
                        flight_rings.get(d.combo, []),
                        outcomes[d.combo].get(d.scenario),
                    ),
                },
            }
            path = os.path.join(
                flight_dir, f"divergence-{_slug(d.scenario)}-{_slug(d.combo)}.json"
            )
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True, default=str)
            flight_artifacts.append(path)

    # -- faulted passes: replay the grid under each plan, fail-closed ------
    fault_plans: tuple = ()
    fault_failures: list = []
    fault_stats: dict = {}
    if faults is not None:
        from repro.faults import FaultPlan

        plans = (faults,) if isinstance(faults, FaultPlan) else tuple(faults)
        fault_plans = tuple(p.name for p in plans)
        for plan in plans:
            pt0 = time.perf_counter()
            fcfg = baseline.config(config).replace(faults=plan)
            service = WitnessService(
                CertificateAuthority(), fcfg,
                text_model=text_model, image_model=image_model,
            )
            per_plan: dict = {}
            with service:
                for spec in grid:
                    try:
                        outcome = run_scenario(spec.build(), service)
                        outcome.combo = f"faults:{plan.name}"
                        per_plan[spec.key] = outcome
                    except Exception as exc:  # noqa: BLE001 - a crash IS a finding
                        fault_failures.append(
                            (plan.name, spec.key, f"CRASH {type(exc).__name__}: {exc}")
                        )
                injector_snapshot = service.fault_injector.snapshot()
                health = service.health()
            refused = certified_n = 0
            for key, outcome in per_plan.items():
                base = base_outcomes.get(key)
                fault_failures.extend(
                    (plan.name, key, detail)
                    for detail in _fault_expectation_failures(
                        plan,
                        outcome.spec,
                        None if base is None else base.fingerprint,
                        outcome.fingerprint,
                    )
                )
                certified_n += outcome.certified
                refused += sum(
                    1
                    for decision, _v, _b, _d, _f in outcome.fingerprint
                    if decision is not None and not decision[0]
                )
            fault_stats[plan.name] = {
                "expectation": plan.honest_expectation,
                "faults_injected": injector_snapshot["total_fired"],
                "points": injector_snapshot["points"],
                "health": health,
                "sessions": sum(o.sessions for o in per_plan.values()),
                "frames": sum(o.frames for o in per_plan.values()),
                "certified": certified_n,
                "refused": refused,
                "wall_seconds": time.perf_counter() - pt0,
            }
    wall = time.perf_counter() - t0

    all_outcomes = [o for per in outcomes.values() for o in per.values()]
    expectation_failures = [
        (o.spec.key, o.combo, detail)
        for o in all_outcomes
        for detail in o.expectation_failures
    ]
    return SoakResult(
        combos=tuple(c.name for c in ordered),
        baseline=baseline.name,
        scenarios=len(grid),
        archetypes=tuple(dict.fromkeys(s.archetype for s in grid)),
        sessions_total=sum(o.sessions for o in all_outcomes),
        frames_total=sum(o.frames for o in all_outcomes),
        certified_total=sum(o.certified for o in all_outcomes),
        sessions_per_combo={
            name: sum(o.sessions for o in per.values()) for name, per in outcomes.items()
        },
        forwards_per_combo=forwards_per_combo,
        divergences=divergences,
        crashes=crashes,
        expectation_failures=expectation_failures,
        wall_seconds=wall,
        span_percentiles=span_percentiles,
        flight_artifacts=flight_artifacts,
        fault_plans=fault_plans,
        fault_failures=fault_failures,
        fault_stats=fault_stats,
    )


def default_soak_specs() -> list:
    """The standard soak matrix: every archetype, every user script.

    Ten scenario instances — twelve witnessed sessions per engine combo
    (the wizard contributes three) — covering all six archetypes and all
    four behaviour scripts.
    """
    return [
        ScenarioSpec("tall-form", script="honest"),
        ScenarioSpec("tall-form", script="tampered"),
        ScenarioSpec("wizard", script="honest"),
        ScenarioSpec("dashboard", script="honest"),
        ScenarioSpec("dashboard", script="abandoning"),
        ScenarioSpec("nested-scroll", script="honest"),
        ScenarioSpec("nested-scroll", script="tampered"),
        ScenarioSpec("letterbox", script="honest"),
        ScenarioSpec("letterbox", script="slow-typist"),
        ScenarioSpec("mixed-stack", script="honest"),
    ]
