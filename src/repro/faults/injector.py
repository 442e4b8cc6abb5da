"""The armed runtime of a :class:`~repro.faults.plan.FaultPlan`.

One :class:`FaultInjector` per :class:`~repro.core.service.WitnessService`
whose config arms a plan.  Every seam in the pipeline asks the injector
whether to fire — but only when a plan is armed at all: the seams
themselves are guarded by ``if self._faults is not None`` (the
``NULL_SPAN`` pattern from :mod:`repro.obs.spans`), so the disarmed hot
path costs one ``is None`` test and zero allocations.

Determinism: each point owns a seeded RNG derived from ``(plan seed,
point name)`` and a call counter, both advanced under one small lock.
A single-threaded scenario therefore replays the exact same fault
schedule on every run; under concurrent sessions the *set* of
recoverable faults may interleave differently, which is fine —
recoverable faults by definition do not change verdicts, and the fault
soak only demands bit-identical fingerprints of plans whose faults are
all recoverable.

Exceptions raised by fired points subclass :class:`RuntimeFaultError`,
so the session quarantine handles injected and organic faults through
the same ``except`` clause — injection proves the organic paths.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.faults.plan import FaultPlan, FaultSpec


class RuntimeFaultError(RuntimeError):
    """Base class of the faults a validation round can surface to a session.

    Subclasses ``RuntimeError`` so existing ``except RuntimeError`` call
    sites keep working; the session turns one into a refusal-causing
    violation and quarantines after ``max_session_faults``.
    """


class InjectedFault(RuntimeFaultError):
    """An injected failure surfaced at a fault point."""


class CacheFault(InjectedFault):
    """An injected digest-cache lookup failure."""


class _PointState:
    """One fault point's armed counters (guarded by the injector lock)."""

    __slots__ = ("spec", "calls", "fires", "rng")

    def __init__(self, spec: FaultSpec, seed: int) -> None:
        self.spec = spec
        self.calls = 0
        self.fires = 0
        # Seeded per (plan, point): schedules replay bit-identically.
        self.rng = np.random.default_rng([seed, *spec.point.encode("utf-8")])


class FaultInjector:
    """Counts seam invocations and fires a plan's scheduled faults."""

    def __init__(self, plan: FaultPlan) -> None:
        if not isinstance(plan, FaultPlan):
            raise TypeError(f"FaultInjector needs a FaultPlan, got {plan!r}")
        self.plan = plan
        self._lock = threading.Lock()
        self._points = {spec.point: _PointState(spec, plan.seed) for spec in plan.specs}

    # -- the one decision every seam asks -----------------------------------

    def decide(self, point: str) -> bool:
        """Count one invocation of ``point``; ``True`` means fire now."""
        state = self._points.get(point)
        if state is None:
            return False
        with self._lock:
            state.calls += 1
            coin = state.rng.random() if state.spec.rate else 1.0
            fired = state.calls in state.spec.at_calls or coin < state.spec.rate
            if (
                fired
                and state.spec.max_fires is not None
                and state.fires >= state.spec.max_fires
            ):
                fired = False
            if fired:
                state.fires += 1
            return fired

    # -- seam-specific helpers ----------------------------------------------

    def sampler_delay_ms(self) -> float:
        """How far to defer the sampling schedule (0.0 = no delay fired)."""
        state = self._points.get("sampler.delay")
        if state is None or not self.decide("sampler.delay"):
            return 0.0
        return state.spec.delay_ms

    def corrupt_frame(self, pixels: np.ndarray) -> np.ndarray:
        """A corrupted copy of sampled pixels: seeded inverted patches.

        Only called after ``decide("sampler.bitflip")`` fired.  The
        original frame is never mutated — the machine's framebuffer is
        not the attack surface here, the witness's *view* of it is.
        """
        state = self._points["sampler.bitflip"]
        spec = state.spec
        out = pixels.copy()
        h, w = out.shape[0], out.shape[1]
        side = min(spec.patch_side, h, w)
        with self._lock:
            for _ in range(spec.patches):
                y = int(state.rng.integers(0, max(1, h - side + 1)))
                x = int(state.rng.integers(0, max(1, w - side + 1)))
                out[y : y + side, x : x + side] = 255.0 - out[y : y + side, x : x + side]
        return out

    def wrap_predict(self, fn):
        """Wrap a model predict callable with the ``infer.*`` seams.

        Returns ``fn`` unchanged when the plan schedules neither point,
        so un-faulted inference keeps its exact callable (and its exact
        performance).  NaN poisoning replaces the verdict array with
        non-finite garbage — exactly what a numerically-diverged model
        would emit — which the fail-closed sanitization downstream must
        map to mismatch, never to match.
        """
        if "infer.raise" not in self._points and "infer.nan" not in self._points:
            return fn

        def faulty_predict(observed, expected, *args, **kwargs):
            if self.decide("infer.raise"):
                raise InjectedFault("injected model-forward failure at infer.raise")
            raw = fn(observed, expected, *args, **kwargs)
            if self.decide("infer.nan"):
                return np.full(np.shape(raw), np.nan)
            return raw

        return faulty_predict

    def cache_hook(self, op: str, key: str) -> None:
        """The :attr:`repro.core.caches.DigestCache.fault_hook` seam."""
        if op == "get" and self.decide("cache.error"):
            raise CacheFault(f"injected digest-cache failure on get({key!r})")

    # -- accounting ----------------------------------------------------------

    @property
    def total_fired(self) -> int:
        with self._lock:
            return sum(state.fires for state in self._points.values())

    def snapshot(self) -> dict:
        """One consistent accounting snapshot for telemetry/benchmarks."""
        with self._lock:
            return {
                "plan": self.plan.name,
                "seed": self.plan.seed,
                "honest_expectation": self.plan.honest_expectation,
                "total_fired": sum(s.fires for s in self._points.values()),
                "points": {
                    point: {"calls": state.calls, "fires": state.fires}
                    for point, state in sorted(self._points.items())
                },
            }
