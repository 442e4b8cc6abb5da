"""Drives guests through the public witness API, timed from outside.

Every call the guest side makes into the witness or the web server goes
through a proxy here that times it with the benchmark's own clock:
``open_session``, ``vspec_for``, ``begin_session``, ``receive_hint``,
``end_session``, ``close``, ``register_page``, ``verify`` and every call
of the guest-clock observer the session registers (that is where
scheduled frames are sampled and validated).  Nothing is read from the
witness's own ``SessionTiming``, so a change inside the witness cannot
move work out of the timed window.  Everything else a session does (the
simulated browser painting, the user model) is guest work; it would run
inside the guest VM in a deployment and is kept out of every witness
figure.

The witness's public report is read only outside the timed calls, to
learn whether a call validated a frame or took the unchanged-frame skip,
and to collect the exact work counts.  The one count the report lacks,
viewport searches, comes from a counter around
``DisplayValidator.locate_viewport`` that every pass installs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.display import DisplayValidator
from repro.core.service import WitnessConfig, WitnessService
from repro.core.timing import SessionTiming, request_delay
from repro.crypto.ca import CertificateAuthority
from repro.datasets.forms import jotform_page
from repro.raster.stacks import stack_registry
from repro.scenarios.scripts import run_script
from repro.scenarios.spec import ScenarioSpec
from repro.server.webserver import WebServer
from repro.web.browser import Browser
from repro.web.extension import BrowserExtension
from repro.web.hypervisor import Machine, SimulatedClock

from perfbench.gauge import Gauge, speed_factor
from perfbench.workloads import SESSION_START_DISPLAY

#: The only knob the benchmark sets: the soak baseline ``batched-inline-frozen``.
CONFIG = WitnessConfig(batched=True)

clock = time.perf_counter


@dataclass
class SessionRecord:
    """What one witnessed session cost and decided."""

    key: str
    script: str
    #: Seconds in open_session + vspec_for + begin_session (ends with frame 0).
    start_s: float = 0.0
    #: Seconds in begin_session alone (T(init) plus frame 0).
    frame0_s: float = 0.0
    #: ``(seconds, virtual sample ms, skipped)`` of every frame after frame 0
    #: that a clock-observer or hint call validated on its own.
    frames: list = field(default_factory=list)
    #: Seconds in end_session (the submission-time frame plus certification).
    end_s: float = 0.0
    #: Virtual session length in ms at submission (``None``: no submission).
    session_ms: float | None = None
    #: Seconds in every witness and server call of this session.
    witness_s: float = 0.0
    decision: str = "none"  # "certified" | "refused" | "none"
    reason: str = ""
    verified: bool | None = None
    error: str | None = None
    #: The verdict the session's script calls for.
    expected: str = "none"
    frames_sampled: int = 0
    frames_skipped: int = 0
    plan_units: int = 0
    forwards: int = 0

    @property
    def failed(self) -> bool:
        """A crash, or a verdict that contradicts the session's script."""
        if self.error is not None:
            return True
        if self.expected == "certified":
            return self.decision != "certified" or self.verified is not True
        return self.decision != self.expected

    @property
    def breach(self) -> bool:
        """The witness certified a display it should have refused."""
        return self.expected != "certified" and self.decision == "certified"

    def request_delay_s(self, scale: float = 1.0) -> float | None:
        """L(s) from the benchmark's own timings (times ``scale``) and the
        virtual sample instants."""
        if self.session_ms is None:
            return None
        timing = SessionTiming(
            t_init=0.0,
            frame_times=[self.frame0_s * scale] + [f[0] * scale for f in self.frames],
            frame_sample_times_ms=[0.0] + [f[1] for f in self.frames],
            t_request=self.end_s * scale,
        )
        return request_delay(timing, self.session_ms / 1000.0)


class _Probe:
    """Times calls into the witness and server for one session."""

    def __init__(self, record: SessionRecord, gauge: Gauge) -> None:
        self.record = record
        self.gauge = gauge
        self.witness = None

    def call(self, fn, *args):
        """Run one witness or server call; returns ``(result, seconds)``."""
        self.gauge.tick()
        t0 = clock()
        try:
            result = fn(*args)
        finally:
            elapsed = clock() - t0
            self.record.witness_s += elapsed
        return result, elapsed

    def frame_call(self, fn, *args):
        """A call that may sample a frame; records the frame it validated."""
        report = self.witness.report
        before = len(report.outcomes)
        _result, elapsed = self.call(fn, *args)
        if report is self.witness.report and len(report.outcomes) == before + 1:
            outcome = report.outcomes[-1]
            self.record.frames.append(
                (elapsed, outcome.sampled_at_ms, outcome.skipped_unchanged)
            )


class _TimedClock(SimulatedClock):
    """A guest clock whose observers (the witness sampler) are timed."""

    def __init__(self, probe: _Probe) -> None:
        super().__init__()
        self._probe = probe
        self._wrapped: dict = {}

    def add_observer(self, callback) -> None:
        def timed(now_ms, _callback=callback):
            self._probe.frame_call(_callback, now_ms)

        self._wrapped[callback] = timed
        super().add_observer(timed)

    def remove_observer(self, callback) -> None:
        super().remove_observer(self._wrapped.pop(callback))


class _TimedServer:
    """The web server as the extension sees it, with vspec_for timed."""

    def __init__(self, server: WebServer, probe: _Probe) -> None:
        self._server = server
        self._probe = probe

    def vspec_for(self, page_id: str, width: int):
        vspec, elapsed = self._probe.call(self._server.vspec_for, page_id, width)
        self._probe.record.start_s += elapsed
        return vspec


class _TimedWitness:
    """The witness session as the extension sees it, every API call timed."""

    def __init__(self, witness, probe: _Probe) -> None:
        self._witness = witness
        self._probe = probe

    def begin_session(self, vspec) -> None:
        _none, elapsed = self._probe.call(self._witness.begin_session, vspec)
        self._probe.record.start_s += elapsed
        self._probe.record.frame0_s = elapsed

    def receive_hint(self, hint) -> None:
        self._probe.frame_call(self._witness.receive_hint, hint)

    def end_session(self, body: dict):
        decision, self._probe.record.end_s = self._probe.call(self._witness.end_session, body)
        return decision


class Deployment:
    """One witness service plus one web server, as a pass uses them."""

    def __init__(self, gauge: Gauge) -> None:
        self.gauge = gauge
        self.ca = CertificateAuthority()
        self.service = WitnessService(self.ca, CONFIG)
        self.server = WebServer(self.ca)
        #: Seconds the server spent registering pages (server time).
        self.register_s = 0.0

    def register(self, page_id: str, page) -> None:
        self.gauge.tick()
        t0 = clock()
        self.server.register_page(page_id, page)
        self.register_s += clock() - t0

    def _guest(self, record, page_id, display, stack, sampler_seed):
        """Connect one guest: VSPEC, paint, begin (the connect_guest sequence)."""
        probe = _Probe(record, self.gauge)
        machine = Machine(*display, clock=_TimedClock(probe))
        browser = Browser(machine, self.server.serve_page(page_id), stack=stack)
        witness, elapsed = probe.call(
            lambda: self.service.open_session(machine, sampler_seed=sampler_seed)
        )
        record.start_s += elapsed
        probe.witness = witness
        extension = BrowserExtension(
            browser, _TimedServer(self.server, probe), _TimedWitness(witness, probe)
        )
        return probe, machine, browser, witness, extension

    def _finish(self, record, probe, witness) -> None:
        probe.call(witness.close)
        report = witness.report
        record.frames_sampled = report.frames_sampled
        record.frames_skipped = report.frames_skipped
        record.plan_units = report.plan_text_units + report.plan_image_pairs
        record.forwards = report.text_forwards + report.image_forwards

    def typing_session(self, scenario, step: int) -> SessionRecord:
        """One witnessed step of a scenario, driven by its user script."""
        page_id = scenario.pages[step][0]
        spec = scenario.spec
        record = SessionRecord(key=f"{spec.key}/s{step}", script=spec.script)
        probe, machine, browser, witness, extension = self._guest(
            record, page_id, scenario.display, scenario.stack, scenario.step_sampler_seed(step)
        )
        try:
            extension.acquire_vspecs(page_id)
            browser.paint()
            extension.begin_session()
            body = run_script(scenario, step, browser, extension.vspec)
            if body is not None:
                # A tamper counts only if it changed what the served page
                # submits; a tamper with no target is an honest session.
                landed = any(
                    str(body.get(name)) != str(value)
                    for name, value in scenario.entries[step].items()
                )
                record.expected = "refused" if landed else "certified"
                decision = extension.end_session(body)
                record.session_ms = machine.clock.now()
                record.decision = "certified" if decision.certified else "refused"
                record.reason = decision.reason
                if decision.request is not None:
                    verdict, _seconds = probe.call(self.server.verify, decision.request)
                    record.verified = bool(verdict)
        except Exception as exc:  # a crashed session is a failed op, not a dead benchmark
            record.error = f"{type(exc).__name__}: {exc}"
        finally:
            self._finish(record, probe, witness)
        return record

    def start_session(self, page_id: str, page, display, stack, sampler_seed: int) -> SessionRecord:
        """A guest that opens ``page`` and leaves after frame 0."""
        self.register(page_id, page)
        record = SessionRecord(key=page_id, script="session-start")
        probe, _machine, browser, witness, extension = self._guest(
            record, page_id, display, stack, sampler_seed
        )
        try:
            extension.acquire_vspecs(page_id)
            browser.paint()
            extension.begin_session()
            # An honest first frame must validate cleanly; the guest then
            # leaves, so the session ends without a decision.
            report = witness.report
            if not report.display_ok or report.violations:
                record.decision = "refused"
                details = [v.detail for v in report.violations]
                details += [f"{f.kind}: {f.reason}" for f in report.all_failures[:1]]
                record.reason = "frame 0: " + "; ".join(details)
        except Exception as exc:
            record.error = f"{type(exc).__name__}: {exc}"
        finally:
            self._finish(record, probe, witness)
        return record


def run_job(deployment: Deployment, job) -> list:
    """Drive every session of one job: a ScenarioSpec or a Jotform page seed."""
    if isinstance(job, ScenarioSpec):
        scenario = job.build()
        for page_id, page in scenario.pages:
            deployment.register(page_id, page)
        return [deployment.typing_session(scenario, step) for step in range(scenario.steps)]
    registry = stack_registry()
    page = jotform_page(job, SESSION_START_DISPLAY[0])
    return [
        deployment.start_session(
            f"jotform-{job}", page, SESSION_START_DISPLAY, registry[job % len(registry)], job
        )
    ]


def warm_up(deployment: Deployment, job) -> None:
    """Open the first page of ``job`` and leave after frame 0."""
    if not isinstance(job, ScenarioSpec):
        run_job(deployment, job)
        return
    scenario = job.build()
    page_id, page = scenario.pages[0]
    deployment.start_session(
        page_id, page, scenario.display, scenario.stack, scenario.step_sampler_seed(0)
    )


@dataclass
class PassResult:
    """One pass over a workload's jobs against a fresh deployment."""

    records: list
    #: Seconds of witness plus server time (every timed call + registration).
    witness_s: float
    #: Wall seconds of the whole pass, guest work included, gauge excluded.
    wall_s: float
    cache_hits: int
    cache_misses: int
    #: Calls of ``DisplayValidator.locate_viewport`` during the pass.
    locate_calls: int
    #: Multiplies this pass's raw times into times at the gauge's reference speed.
    speed: float

    def counts(self) -> dict:
        """Work counts that must repeat exactly from pass to pass."""
        records = self.records
        sampled = sum(r.frames_sampled for r in records)
        skipped = sum(r.frames_skipped for r in records)
        return {
            "sessions": len(records),
            "frames.sampled": sampled,
            "frames.skipped": skipped,
            "frames.validated": sampled - skipped,
            "display.locate.calls": self.locate_calls,
            "display.plan_units": sum(r.plan_units for r in records),
            "verifiers.forwards": sum(r.forwards for r in records),
            "caches.digest_hits": self.cache_hits,
            "caches.digest_misses": self.cache_misses,
            "sessions.certified": sum(r.decision == "certified" for r in records),
            "sessions.refused": sum(r.decision == "refused" for r in records),
            "sessions.undecided": sum(r.decision == "none" for r in records),
            "ops_failed": sum(r.failed for r in records),
        }


def run_pass(jobs: list, gauge: Gauge) -> PassResult:
    """Drive every job once against a fresh service and server."""
    locate = DisplayValidator.locate_viewport
    locate_calls = 0

    def counted_locate(*args, **kwargs):
        nonlocal locate_calls
        locate_calls += 1
        return locate(*args, **kwargs)

    DisplayValidator.locate_viewport = counted_locate
    try:
        deployment = Deployment(gauge)
        gauge.take()
        t0, spent = clock(), gauge.spent_s
        records = []
        for job in jobs:
            records.extend(run_job(deployment, job))
        wall = clock() - t0 - (gauge.spent_s - spent)
    finally:
        DisplayValidator.locate_viewport = locate
    cache = deployment.service.shared_cache
    witness = deployment.register_s + sum(r.witness_s for r in records)
    return PassResult(
        records, witness, wall, cache.hits, cache.misses, locate_calls,
        speed_factor(gauge.take()),
    )
