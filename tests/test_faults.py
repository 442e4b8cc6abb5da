"""Deterministic fault injection and the fail-closed ladder.

Three layers of coverage:

* unit tests of the plan/injector machinery (validation, seeded
  determinism, call/fire accounting) and the fail-closed verdict
  sanitization;
* verifier hardening: NaN logits sanitize to mismatch, raising caches
  degrade to misses with identical verdicts, a raising forward is
  retried once;
* session fail-closed behavior: unrecoverable faults become violations
  and refusals, and repeated ones quarantine the session.
"""

import threading

import numpy as np
import pytest

from repro.core.caches import DigestCache
from repro.core.sampler import ScreenshotSampler
from repro.core.service import WitnessConfig
from repro.core.verifiers import TextVerifier
from repro.faults import (
    CacheFault,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RuntimeFaultError,
    cache_fault_plan,
    forward_raise_plan,
    nan_logits_plan,
    shipped_plans,
)
from repro.nn.infer import fail_closed_verdicts
from repro.server.webserver import WitnessedSite
from repro.web import HonestUser

from tests.conftest import make_transfer_page


class FakeModel:
    """Row-independent deterministic stand-in for a matcher model."""

    def __init__(self, fail_first: int = 0):
        self.forwards = 0
        self.fail_first = fail_first
        self._lock = threading.Lock()

    def predict(self, observed, expected, chunk_size=None):
        with self._lock:
            self.forwards += 1
            if self.forwards <= self.fail_first:
                raise ValueError("synthetic forward failure")
        return observed.reshape(len(observed), -1).sum(axis=1) > 0


def plan_of(*specs, **kwargs) -> FaultPlan:
    kwargs.setdefault("name", "test")
    return FaultPlan(specs=tuple(specs), **kwargs)


class TestFaultPlan:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultSpec("sampler.explode", rate=1.0)

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("sampler.drop", rate=1.5)

    def test_spec_must_be_able_to_fire(self):
        with pytest.raises(ValueError, match="can never fire"):
            FaultSpec("sampler.drop")

    def test_at_calls_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec("sampler.drop", at_calls=(0,))

    def test_plan_needs_specs(self):
        with pytest.raises(ValueError, match="at least one"):
            FaultPlan(name="empty")

    def test_duplicate_points_rejected(self):
        spec = FaultSpec("cache.error", rate=0.5)
        with pytest.raises(ValueError, match="duplicate"):
            plan_of(spec, spec)

    def test_expectation_validated(self):
        with pytest.raises(ValueError, match="honest_expectation"):
            plan_of(FaultSpec("cache.error", rate=0.5), honest_expectation="maybe")

    def test_shipped_plans_are_valid_and_named(self):
        plans = shipped_plans()
        assert len(plans) == 5
        assert len({p.name for p in plans}) == 5
        for plan in plans:
            assert plan.honest_expectation in ("identical", "certify", "refuse")

    def test_config_validates_plan_type(self):
        with pytest.raises(ValueError, match="FaultPlan"):
            WitnessConfig(faults="frame-drop")


class TestFaultInjector:
    def test_at_calls_fire_exactly(self):
        inj = FaultInjector(plan_of(FaultSpec("infer.raise", at_calls=(2, 4))))
        assert [inj.decide("infer.raise") for _ in range(5)] == [
            False, True, False, True, False,
        ]

    def test_rate_schedule_is_seed_deterministic(self):
        mk = lambda seed: FaultInjector(
            plan_of(FaultSpec("cache.error", rate=0.3), seed=seed)
        )
        a, b, c = mk(7), mk(7), mk(8)
        seq = [a.decide("cache.error") for _ in range(200)]
        assert seq == [b.decide("cache.error") for _ in range(200)]
        assert seq != [c.decide("cache.error") for _ in range(200)]
        assert any(seq) and not all(seq)

    def test_max_fires_caps_rate(self):
        inj = FaultInjector(plan_of(FaultSpec("cache.error", rate=1.0, max_fires=3)))
        assert sum(inj.decide("cache.error") for _ in range(10)) == 3
        assert inj.total_fired == 3

    def test_unarmed_point_is_a_fast_no(self):
        inj = FaultInjector(plan_of(FaultSpec("cache.error", rate=1.0)))
        assert not inj.decide("infer.raise")
        assert inj.snapshot()["points"] == {"cache.error": {"calls": 0, "fires": 0}}

    def test_injected_faults_are_runtime_fault_errors(self):
        assert issubclass(InjectedFault, RuntimeFaultError)
        assert issubclass(CacheFault, InjectedFault)

    def test_corrupt_frame_copies_and_differs(self):
        inj = FaultInjector(plan_of(FaultSpec("sampler.bitflip", rate=1.0)))
        frame = np.full((120, 200), 200.0)
        out = inj.corrupt_frame(frame)
        assert out is not frame
        assert np.all(frame == 200.0)  # original untouched
        assert np.any(out != frame)

    def test_wrap_predict_passthrough_when_unarmed(self):
        inj = FaultInjector(plan_of(FaultSpec("cache.error", rate=1.0)))
        fn = lambda o, e: 42
        assert inj.wrap_predict(fn) is fn

    def test_snapshot_accounting(self):
        inj = FaultInjector(plan_of(FaultSpec("infer.raise", at_calls=(1,))))
        inj.decide("infer.raise"), inj.decide("infer.raise")
        snap = inj.snapshot()
        assert snap["plan"] == "test"
        assert snap["points"]["infer.raise"] == {"calls": 2, "fires": 1}
        assert snap["total_fired"] == 1


class TestFailClosedVerdicts:
    def test_bool_passthrough(self):
        v = np.array([True, False])
        assert fail_closed_verdicts(v) is v

    def test_nan_and_inf_are_mismatches(self):
        raw = np.array([1.0, np.nan, 0.0, np.inf, -3.0])
        # bool(nan) is True: without sanitization NaN would certify.
        assert list(fail_closed_verdicts(raw)) == [True, False, False, False, True]

    def test_int_verdicts(self):
        assert list(fail_closed_verdicts(np.array([0, 2, 1]))) == [False, True, True]


class TestSamplerDefer:
    def test_defer_pushes_never_pulls(self):
        sampler = ScreenshotSampler(0.0, seed=1)
        scheduled = sampler.next_sample_ms
        assert sampler.defer(0.0, 0.0) == scheduled  # never earlier
        assert sampler.defer(scheduled, 120.0) == scheduled + 120.0

    def test_defer_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            ScreenshotSampler(0.0).defer(0.0, -1.0)


class TestVerifierHardening:
    def test_nan_logits_never_certify(self):
        faults = FaultInjector(nan_logits_plan())
        verifier = TextVerifier(FakeModel(), faults=faults)
        verdicts = verifier.verify_tiles(
            [np.full((32, 32), 255.0), np.full((32, 32), 255.0)], ["a", "b"]
        )
        assert list(verdicts) == [False, False]
        assert faults.total_fired >= 1

    def test_forward_raise_recovered_by_retry(self):
        faults = FaultInjector(forward_raise_plan())
        clean = TextVerifier(FakeModel())
        faulted = TextVerifier(FakeModel(), faults=faults)
        tiles = [np.full((32, 32), 255.0), np.zeros((32, 32))]
        assert list(faulted.verify_tiles(tiles, ["a", "b"])) == list(
            clean.verify_tiles(tiles, ["a", "b"])
        )
        assert faulted.forward_retries == 1
        assert faults.total_fired == 1

    def test_cache_fault_degrades_to_miss_with_identical_verdicts(self):
        faults = FaultInjector(
            FaultPlan(name="always-cache", specs=(FaultSpec("cache.error", rate=1.0),))
        )
        cache = DigestCache(100)
        cache.fault_hook = faults.cache_hook
        clean = TextVerifier(FakeModel(), cache=DigestCache(100))
        faulted = TextVerifier(FakeModel(), cache=cache)
        tiles = [np.full((32, 32), 255.0), np.zeros((32, 32))]
        for _ in range(2):  # second round would be cache hits if healthy
            assert list(faulted.verify_tiles(tiles, ["a", "b"])) == list(
                clean.verify_tiles(tiles, ["a", "b"])
            )
        assert faulted.cache_faults > 0
        assert cache.hits == 0  # every lookup raised; all degraded to miss

    def test_cache_hook_raises_cache_fault(self):
        faults = FaultInjector(cache_fault_plan())
        cache = DigestCache(10)
        cache.fault_hook = faults.cache_hook
        outcomes = []
        for i in range(40):
            try:
                cache.get(f"k{i}")
                outcomes.append(False)
            except CacheFault:
                outcomes.append(True)
        assert any(outcomes) and not all(outcomes)
        cache.fault_hook = None
        cache.put("k", True)
        assert cache.get("k") is True


def make_site(text_model, image_model, **config_overrides) -> WitnessedSite:
    config = WitnessConfig(batched=True).replace(**config_overrides)
    site = WitnessedSite(config=config, text_model=text_model, image_model=image_model)
    site.register_page("transfer", make_transfer_page())
    return site


class TestSessionFailClosed:
    def test_unrecoverable_faults_refuse_and_quarantine(self, text_model, image_model):
        """Every forward raises (retry included): frames become fault
        violations, the session quarantines at the cap, and certification
        refuses — fail closed, not fail open."""
        plan = FaultPlan(
            name="always-raise",
            honest_expectation="refuse",
            specs=(FaultSpec("infer.raise", rate=1.0),),
        )
        site = make_site(text_model, image_model, faults=plan, max_session_faults=2)
        client = site.connect("transfer")
        HonestUser(client.browser).fill_text_input("recipient", "ACC-1")
        client.machine.clock.advance(3000)
        decision = client.submit()
        assert not decision.certified
        report = client.witness.report
        rules = {v.rule for v in report.violations}
        assert "fault" in rules and "quarantine" in rules
        health = site.service.health()
        assert health["quarantined_sessions"] == 1
        assert health["state"] in ("degraded", "failed")
        assert site.service.fault_injector.total_fired >= 2

    def test_frame_corruption_refuses(self, text_model, image_model):
        plan = FaultPlan(
            name="corrupt-all",
            honest_expectation="refuse",
            specs=(FaultSpec("sampler.bitflip", rate=1.0),),
        )
        site = make_site(text_model, image_model, faults=plan)
        client = site.connect("transfer")
        HonestUser(client.browser).fill_text_input("recipient", "ACC-1")
        client.machine.clock.advance(1200)
        decision = client.submit()
        assert not decision.certified
        assert client.witness.report.frames_corrupted > 0

    def test_disarmed_service_runs_clean(self, text_model, image_model):
        """faults=None: no injector, healthy service, honest certify."""
        site = make_site(text_model, image_model)
        assert site.service.fault_injector is None
        client = site.connect("transfer")
        user = HonestUser(client.browser)
        user.fill_text_input("recipient", "ACC-9")
        user.fill_text_input("amount", "5")
        user.toggle_checkbox("confirm", True)
        decision = client.submit()
        assert decision.certified, decision.reason
        health = site.service.health()
        assert health["state"] == "healthy"
        assert not health["faults_armed"]
        report = client.witness.report
        assert (report.frames_dropped, report.frames_delayed, report.frames_corrupted) == (0, 0, 0)

    def test_telemetry_carries_health_and_faults(self, text_model, image_model):
        plan = FaultPlan(
            name="drop-some",
            honest_expectation="certify",
            specs=(FaultSpec("sampler.drop", rate=0.2),),
        )
        site = make_site(text_model, image_model, faults=plan)
        client = site.connect("transfer")
        client.machine.clock.advance(2000)
        client.close()
        snap = site.service.telemetry()
        assert snap["health"]["faults_armed"] is True
        assert snap["faults"]["plan"] == "drop-some"
        assert "health:" in snap.describe() or "faults:" in snap.describe()
