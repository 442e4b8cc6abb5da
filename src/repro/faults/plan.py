"""Fault plans: deterministic, seedable schedules of named fault points.

A :class:`FaultPlan` is pure data — *which* seams fire, *when*, and what
an honest session is entitled to expect while they do.  The armed
state that actually counts invocations and fires lives in
:class:`repro.faults.injector.FaultInjector`; keeping the plan frozen
means a soak can hand the same plan to many services and every run
replays the same schedule.

Fault points are the named seams threaded through the pipeline
(:data:`FAULT_POINTS`); a plan schedules a point either positionally
(``at_calls`` — fire on exactly these 1-based invocations of the seam)
or statistically (``rate`` — a per-invocation seeded coin, optionally
capped by ``max_fires``).  Both forms are deterministic given the plan
seed: the rate coin comes from a per-point ``np.random.default_rng``
seeded from ``(plan.seed, point name)``.

``honest_expectation`` classifies the plan for the fault soak:

* ``"identical"`` — the faults are recoverable; an honest session must
  certify with a session fingerprint bit-identical to the fault-free
  run (forward raise, cache fault).
* ``"certify"`` — the faults perturb *evidence collection* (dropped or
  delayed samples), so fingerprints legitimately differ, but an honest
  session must still certify and pass server verification.
* ``"refuse"`` — the faults are unrecoverable corruption; an honest
  session must reach a clean refuse-to-certify decision (never a wedge,
  never a crash, and *never* a certification it didn't earn).

Tampered sessions must refuse under **every** plan — that invariant is
unconditional and is what "fail closed" means here.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Every injection seam in the pipeline, with the layer that hosts it.
#: CONTRIBUTING rule: a new pipeline seam ships a fault point here and a
#: fail-closed test exercising it.
FAULT_POINTS = {
    "sampler.drop": "core.service — a scheduled screenshot is never taken",
    "sampler.delay": "core.service — a scheduled screenshot is deferred",
    "sampler.bitflip": "core.service — sampled pixels are corrupted in flight",
    "infer.raise": "nn.infer — a model forward raises mid-predict",
    "infer.nan": "nn.infer — a model forward returns NaN logits",
    "cache.error": "core.caches — a digest-cache lookup raises",
}

#: What the fault soak may expect of honest sessions under a plan.
HONEST_EXPECTATIONS = ("identical", "certify", "refuse")


@dataclass(frozen=True)
class FaultSpec:
    """One fault point's schedule within a plan."""

    point: str
    #: 1-based seam invocations that fire unconditionally.
    at_calls: tuple = ()
    #: Per-invocation fire probability (seeded, deterministic).
    rate: float = 0.0
    #: Cap on total fires (``None`` = unbounded).  Applies to rate fires
    #: and ``at_calls`` fires combined.
    max_fires: int | None = None
    #: ``sampler.delay``: how far the schedule is pushed (virtual ms).
    delay_ms: float = 100.0
    #: ``sampler.bitflip``: inverted square patches per corrupted frame,
    #: and their side length in pixels.
    patches: int = 2
    patch_side: int = 48

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; known: {sorted(FAULT_POINTS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if any(c < 1 for c in self.at_calls):
            raise ValueError(f"at_calls are 1-based invocation indexes, got {self.at_calls}")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError(f"max_fires must be None or >= 1, got {self.max_fires}")
        if not self.at_calls and self.rate == 0.0:
            raise ValueError(f"spec for {self.point!r} can never fire (no at_calls, rate=0)")


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded schedule over one or more fault points."""

    name: str
    specs: tuple = ()
    seed: int = 0
    honest_expectation: str = "identical"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a FaultPlan needs a name")
        if self.honest_expectation not in HONEST_EXPECTATIONS:
            raise ValueError(
                f"honest_expectation must be one of {HONEST_EXPECTATIONS}, "
                f"got {self.honest_expectation!r}"
            )
        if not self.specs:
            raise ValueError("a FaultPlan needs at least one FaultSpec")
        seen = set()
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"specs must be FaultSpec instances, got {spec!r}")
            if spec.point in seen:
                raise ValueError(f"duplicate spec for fault point {spec.point!r}")
            seen.add(spec.point)

    @property
    def points(self) -> tuple:
        return tuple(spec.point for spec in self.specs)


# -- the shipped plan catalog ----------------------------------------------


def frame_drop_plan(seed: int = 0) -> FaultPlan:
    """Drop ~1 in 6 scheduled samples and defer ~1 in 10: honest sessions
    lose evidence density but must still certify (the random schedule
    already tolerates sparse observation)."""
    return FaultPlan(
        name="frame-drop",
        seed=seed,
        honest_expectation="certify",
        specs=(
            FaultSpec("sampler.drop", rate=1 / 6),
            FaultSpec("sampler.delay", rate=0.1, delay_ms=120.0),
        ),
    )


def frame_corruption_plan(seed: int = 0) -> FaultPlan:
    """Invert pixel patches in every sampled frame: unrecoverable evidence
    corruption — honest sessions must refuse cleanly, never certify."""
    return FaultPlan(
        name="frame-corruption",
        seed=seed,
        honest_expectation="refuse",
        specs=(FaultSpec("sampler.bitflip", rate=1.0),),
    )


def forward_raise_plan(seed: int = 0) -> FaultPlan:
    """One early model forward raises: recovered by the verifier's retry —
    fingerprints must stay bit-identical."""
    return FaultPlan(
        name="forward-raise",
        seed=seed,
        honest_expectation="identical",
        specs=(FaultSpec("infer.raise", at_calls=(1,), max_fires=1),),
    )


def nan_logits_plan(seed: int = 0) -> FaultPlan:
    """Every forward returns NaN logits: the fail-closed verdict
    sanitization maps non-finite to mismatch, so honest sessions refuse
    instead of certifying garbage."""
    return FaultPlan(
        name="nan-logits",
        seed=seed,
        honest_expectation="refuse",
        specs=(FaultSpec("infer.nan", rate=1.0),),
    )


def cache_fault_plan(seed: int = 0) -> FaultPlan:
    """~1 in 4 digest-cache lookups raise: verifiers treat the error as a
    miss and recompute — same verdicts, colder cache."""
    return FaultPlan(
        name="cache-fault",
        seed=seed,
        honest_expectation="identical",
        specs=(FaultSpec("cache.error", rate=0.25),),
    )


def shipped_plans(seed: int = 0) -> tuple:
    """Every plan the acceptance soak runs, in catalog order."""
    return (
        frame_drop_plan(seed),
        frame_corruption_plan(seed),
        forward_raise_plan(seed),
        nan_logits_plan(seed),
        cache_fault_plan(seed),
    )
