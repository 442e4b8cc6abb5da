"""Service-oriented witness API: one service, many concurrent sessions.

* :class:`WitnessService` — long-lived and thread-safe.  Loads/trains
  the text and image models exactly once (through the process-wide zoo
  registry), is provisioned from a CA at construction (§III-A: ``K_pri``
  sealed to the measured trusted stack, ``K_pub`` certified), owns one
  cross-session :class:`~repro.core.caches.DigestCache` and dispatches
  the ``on_frame``/``on_violation``/``on_decision`` hooks.
* :class:`WitnessSession` — a cheap single-use handle, one per guest
  :class:`~repro.web.hypervisor.Machine`, with a context-manager
  lifecycle.  It runs the §III-B workflow (``begin_session`` /
  ``receive_hint`` / ``end_session``) under its service's config and
  shared resources while keeping all per-guest state private.
* :class:`WitnessConfig` — the immutable configuration of a service.
* :class:`FrameOutcome` — the typed per-frame result delivered to the
  ``on_frame`` hook.
* :class:`SessionRegistry` — the live sessions of a service and its
  session counters, read as one :meth:`SessionRegistry.stats` snapshot.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field, replace

from repro.core.caches import DifferentialDetector, DigestCache
from repro.core.display import VIEWPORT_SCORE_FLOOR, DisplayResult, DisplayValidator
from repro.core.interaction import InteractionTracker, Violation
from repro.core.pof import OutlineSearch, check_pof_consistency, extract_pofs
from repro.core.sampler import ScreenshotSampler
from repro.core.submission import CertificationDecision, SubmissionValidator
from repro.core.timing import SessionTiming
from repro.core.verifiers import ImageVerifier, TextVerifier
from repro.crypto.ca import CertificateAuthority
from repro.faults import FaultInjector, FaultPlan, RuntimeFaultError
from repro.nn.model import PREDICT_CHUNK
from repro.obs.spans import maybe_span
from repro.crypto.keys import MeasuredState, SealedSigningKey, generate_signing_key
from repro.vision.components import Rect
from repro.vspec.spec import VSpec
from repro.web.hypervisor import Machine

#: Stride between auto-derived per-session sampler seeds (a prime far from
#: the small integers humans pin by hand, so derived seeds don't collide
#: with explicitly chosen ones).
_SEED_STRIDE = 7919

#: Components measured into the trusted stack at provisioning time.
TRUSTED_STACK = {
    "hypervisor": b"xen-4.17-analogue",
    "vwitness-core": b"repro.core-v1",
    "text-model": b"text-verifier-weights",
    "image-model": b"image-verifier-weights",
}


@dataclass(frozen=True)
class WitnessConfig:
    """Immutable witness configuration; every session of a service runs
    under the service's one config (derive variants with :meth:`replace`)."""

    #: Plan-level batching: with ``True`` each frame's collected
    #: ValidationPlan runs through the model in chunks of up to
    #: :data:`~repro.nn.model.PREDICT_CHUNK` unit inputs (the paper's GPU
    #: setup); with ``False`` every unit input is its own forward (the
    #: CPU setup).  Verdicts are identical either way.
    batched: bool = False
    caching: bool = True
    sampler_seed: int = 0
    periodic_sampling: bool = False
    subject: str = "client-1"
    #: Frame-span tracing (:mod:`repro.obs`).  Off by default: disabled
    #: tracing costs one ``is None`` test per span site and zero
    #: allocations.  Enabled, every sampled frame is timed stage by stage
    #: (histograms surfaced via ``WitnessService.telemetry()``) and
    #: recorded into the service's flight-recorder ring.  Tracing never
    #: changes a verdict — soak fingerprints are bit-identical on vs off.
    tracing: bool = False
    #: Flight-recorder ring capacity in frames (only meaningful with
    #: ``tracing=True``).
    flight_frames: int = 64
    #: Directory for flight-recorder JSON artifacts.  When set (and
    #: tracing), every violation and every rejected certification
    #: decision dumps the last-N-frames evidence there; ``None`` keeps
    #: the ring query-only (``WitnessService.flight_recorder``).
    flight_dir: str | None = None
    #: Deterministic fault injection (:mod:`repro.faults`).  ``None`` (the
    #: default) keeps every seam a zero-cost ``is None`` test; a
    #: :class:`~repro.faults.FaultPlan` arms the service-wide injector.
    #: Faults never change what *can* certify — they exercise the
    #: fail-closed ladder: recoverable faults degrade and retry,
    #: unrecoverable ones become violations and refusals.
    faults: FaultPlan | None = None
    #: Unrecoverable validation faults a session tolerates (each already a
    #: refusal-causing violation) before it is quarantined: sampling
    #: stops and the session can only refuse to certify.
    max_session_faults: int = 3

    def __post_init__(self) -> None:
        if self.flight_frames < 1:
            raise ValueError(f"flight_frames must be >= 1, got {self.flight_frames}")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ValueError(
                f"faults must be None or a repro.faults.FaultPlan, got {type(self.faults).__name__}"
            )
        if self.max_session_faults < 1:
            raise ValueError(
                f"max_session_faults must be >= 1, got {self.max_session_faults}"
            )

    def replace(self, **overrides) -> "WitnessConfig":
        """A copy of this config with ``overrides`` applied."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class FrameOutcome:
    """Typed result of one sampled-and-validated frame (``on_frame`` hook)."""

    index: int
    sampled_at_ms: float
    elapsed_seconds: float
    ok: bool
    offset_y: int
    skipped_unchanged: bool
    failures: tuple
    new_violations: tuple
    #: The viewport offset was tracked (scored at the last located offset)
    #: rather than searched.  Not part of a soak fingerprint: the offset
    #: is, and tracking must not change it.
    viewport_tracked: bool = False
    # Plan-size statistics: unit inputs collected and model forwards run
    # for this frame (zero for skipped-unchanged frames).  In batched mode
    # forwards stay O(1) per model kind regardless of plan size.
    plan_text_units: int = 0
    plan_image_pairs: int = 0
    text_retry_rounds: int = 0
    text_forwards: int = 0
    image_forwards: int = 0

    @property
    def clean(self) -> bool:
        return self.ok and not self.new_violations

    @property
    def plan_units(self) -> int:
        """Total unit inputs the frame's validation plan collected."""
        return self.plan_text_units + self.plan_image_pairs

    @property
    def forwards(self) -> int:
        """Total model forward passes the frame's plan executed."""
        return self.text_forwards + self.image_forwards


@dataclass
class SessionReport:
    """Everything a session recorded (exposed for tests and benches)."""

    display_ok: bool = True
    frame_results: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    timing: SessionTiming = field(default_factory=SessionTiming)
    frames_sampled: int = 0
    frames_skipped: int = 0
    #: Validated frames whose viewport was tracked instead of searched.
    frames_tracked: int = 0
    text_invocations: int = 0
    image_invocations: int = 0
    text_forwards: int = 0
    image_forwards: int = 0
    outcomes: list = field(default_factory=list)
    # Fault-injection bookkeeping (sampler seams; zero without a plan).
    # Not part of the session fingerprint: recoverable faults must leave
    # verdicts bit-identical, and these count the recoveries themselves.
    frames_dropped: int = 0
    frames_delayed: int = 0
    frames_corrupted: int = 0

    @property
    def all_failures(self) -> list:
        return [f for r in self.frame_results for f in r.failures]

    @property
    def plan_text_units(self) -> int:
        """Unit inputs collected by every frame's text plan, summed."""
        return sum(r.plan_text_units for r in self.frame_results)

    @property
    def plan_image_pairs(self) -> int:
        """Unit inputs collected by every frame's image plan, summed."""
        return sum(r.plan_image_pairs for r in self.frame_results)


class SessionRegistry:
    """Thread-safe book-keeping of a service's live sessions.

    Every counter is written under the registry lock and read only
    through :meth:`stats`, one mutually consistent snapshot: bare reads
    could observe a torn pair (a ``total_opened`` that already counts a
    session whose ``peak_active`` bump it misses).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sessions: dict = {}
        self._ids = itertools.count(1)
        self._total_opened = 0
        self._peak_active = 0
        self._frames_tracked = 0
        self._quarantined = 0

    def register(self, session: "WitnessSession") -> int:
        with self._lock:
            session_id = next(self._ids)
            self._sessions[session_id] = session
            self._total_opened += 1
            self._peak_active = max(self._peak_active, len(self._sessions))
            return session_id

    def unregister(self, session: "WitnessSession") -> None:
        with self._lock:
            self._sessions.pop(session.id, None)

    def note_tracked(self) -> None:
        """Count one frame whose viewport was tracked instead of searched."""
        with self._lock:
            self._frames_tracked += 1

    def note_quarantine(self) -> None:
        """Count one quarantined session."""
        with self._lock:
            self._quarantined += 1

    def active(self) -> list:
        """The currently registered (not yet closed) sessions."""
        with self._lock:
            return list(self._sessions.values())

    def stats(self) -> dict:
        """One consistent snapshot of the registry's counters."""
        with self._lock:
            return {
                "active": len(self._sessions),
                "total_opened": self._total_opened,
                "peak_active": self._peak_active,
                "frames_tracked": self._frames_tracked,
                "quarantined": self._quarantined,
            }


class WitnessService:
    """A long-lived witness serving many guest machines concurrently.

    Owns everything expensive exactly once — trained models, the sealed
    signing key and certificate, the cross-session digest cache — and
    vends :class:`WitnessSession` handles via :meth:`open_session`.

    Provisioning (§III-A): the service generates ``K_pri``, seals it to
    the measured trusted stack and has ``ca`` certify ``K_pub`` for
    ``config.subject``.
    """

    def __init__(
        self,
        ca: CertificateAuthority,
        config: WitnessConfig | None = None,
        *,
        text_model=None,
        image_model=None,
    ) -> None:
        self.config = config or WitnessConfig()
        self.ca = ca

        if text_model is None or image_model is None:
            # The zoo memoizes per process: a second service never retrains.
            from repro.nn.zoo import get_image_model, get_text_model

            text_model = text_model or get_text_model()
            image_model = image_model or get_image_model()
        self.text_model = text_model
        self.image_model = image_model

        state = MeasuredState.measure(dict(TRUSTED_STACK))
        key = generate_signing_key()
        certificate = ca.issue(self.config.subject, key.public_key())
        self.submission = SubmissionValidator(SealedSigningKey(key, state), state, certificate)

        self.shared_cache: DigestCache | None = (
            DigestCache() if self.config.caching else None
        )
        #: The service-wide deterministic fault injector; ``None`` unless
        #: the config carries a :class:`~repro.faults.FaultPlan`.  One
        #: injector spans every session, so ``at_calls`` schedules count
        #: service-global seam calls.
        self.fault_injector: FaultInjector | None = (
            FaultInjector(self.config.faults) if self.config.faults is not None else None
        )
        if self.fault_injector is not None and self.shared_cache is not None:
            self.shared_cache.fault_hook = self.fault_injector.cache_hook
        self.registry = SessionRegistry()
        self._hooks: dict = {"frame": [], "violation": [], "decision": []}
        # Observability state (repro.obs): span histograms and the flight
        # ring are created lazily by the first traced session, so
        # tracing-off services carry two None attributes and nothing else.
        self._obs_lock = threading.Lock()
        self._span_metrics = None
        self._flight = None
        self._flight_seq = itertools.count(1)

    # -- observability hooks ----------------------------------------------
    # Hooks fire for every session of the service; a callback that cares
    # about one guest filters on its ``session`` argument.

    def on_frame(self, callback):
        """Register ``callback(session, outcome)`` for every sampled frame."""
        self._hooks["frame"].append(callback)
        return callback

    def on_violation(self, callback):
        """Register ``callback(session, violation)``, fired for every
        violation a frame records (after that frame's bookkeeping)."""
        self._hooks["violation"].append(callback)
        return callback

    def on_decision(self, callback):
        """Register ``callback(session, decision)`` fired at certification."""
        self._hooks["decision"].append(callback)
        return callback

    # -- session vending ---------------------------------------------------

    def open_session(
        self, machine: Machine, *, sampler_seed: int | None = None
    ) -> "WitnessSession":
        """Vend a session handle for one guest machine.

        A pinned ``sampler_seed`` is honored verbatim.  Otherwise each
        session gets a distinct derived seed (the config's + a
        large-stride session counter, so it also stays clear of typical
        hand-pinned values) and therefore a distinct sampling schedule.
        Note the simulation's seeded RNG is deterministic by design —
        schedule *unpredictability* against a real co-located attacker is
        an OS-entropy concern, out of scope here.
        """
        session = WitnessSession(self, machine)
        session.id = self.registry.register(session)
        if sampler_seed is None:
            sampler_seed = self.config.sampler_seed + (session.id - 1) * _SEED_STRIDE
        session.sampler_seed = sampler_seed
        return session

    def session_cache_views(self):
        """(text, image) views of the shared cache, or ``(None, None)``.

        Both views sit over the *same* shared store but in disjoint
        namespaces, so a text-tile digest can never satisfy an
        image-region lookup (and vice versa).
        """
        if self.shared_cache is None:
            return None, None
        return self.shared_cache.scoped("text"), self.shared_cache.scoped("image")

    # -- health & degradation ------------------------------------------------

    def health(self, sessions: dict | None = None) -> dict:
        """The service's degradation-ladder state, one JSON-able dict.

        ``healthy`` until a session is quarantined, then ``degraded``:
        something unrecoverable happened.  Also reports the fault
        injector's arming state.  ``sessions`` is a
        :meth:`SessionRegistry.stats` snapshot already taken (telemetry
        passes its own, so both sections read one snapshot).
        """
        quarantined = (sessions or self.registry.stats())["quarantined"]
        return {
            "state": "degraded" if quarantined else "healthy",
            "quarantined_sessions": quarantined,
            "faults_armed": self.fault_injector is not None,
            "faults_injected": (
                self.fault_injector.total_fired if self.fault_injector is not None else 0
            ),
        }

    # -- observability (repro.obs) -----------------------------------------

    def session_tracer(self, session_id: int):
        """A :class:`~repro.obs.spans.SpanTracer` for one session, or
        ``None`` when tracing is off (the zero-cost default).

        All traced sessions of a service share one span-metrics registry
        (percentiles aggregate service-wide) and one flight ring.
        """
        if not self.config.tracing:
            return None
        from repro.obs.flight import FlightRecorder
        from repro.obs.spans import SpanTracer
        from repro.obs.metrics import MetricsRegistry

        with self._obs_lock:
            if self._span_metrics is None:
                self._span_metrics = MetricsRegistry()
            if self._flight is None:
                self._flight = FlightRecorder(self.config.flight_frames)
            return SpanTracer(
                session_id,
                self._span_metrics,
                recorder=self._flight,
                cache=self.shared_cache,
            )

    @property
    def span_metrics(self):
        """The shared span-histogram registry (None until a traced session)."""
        return self._span_metrics

    @property
    def flight_recorder(self):
        """The shared flight-recorder ring (None until a traced session)."""
        return self._flight

    def telemetry(self):
        """One :class:`~repro.obs.telemetry.TelemetrySnapshot` federating
        every stats island: sessions, cache, health, faults, spans,
        flight."""
        from repro.obs.telemetry import build_snapshot

        return build_snapshot(self)

    def dump_flight(self, reason: str, session: "WitnessSession | None" = None) -> str | None:
        """Write the flight ring to a JSON artifact under ``flight_dir``.

        Returns the path, or ``None`` when there is nothing to dump (no
        traced session yet) or no ``flight_dir`` configured.  Called
        automatically on violations and rejected decisions; callable
        directly for ad-hoc snapshots.
        """
        recorder = self._flight
        flight_dir = self.config.flight_dir
        if recorder is None or not flight_dir:
            return None
        seq = next(self._flight_seq)
        sid = session.id if session is not None else 0
        path = os.path.join(flight_dir, f"flight-s{sid:03d}-{seq:04d}.json")
        return recorder.dump(path, reason=reason)

    def close(self) -> None:
        """Release the service.  Idempotent.

        Every session validates inline on its caller's thread, so the
        service owns no threads or pools to release; ``close`` and the
        context manager stay so callers can scope a service's lifetime.
        """

    def __enter__(self) -> "WitnessService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _dispatch(self, kind: str, session: "WitnessSession", payload) -> None:
        # Flight-recorder artifacts fire before user hooks: the evidence
        # is on disk even if a hook raises.  The offending frame's trace
        # is already in the ring (finish_frame precedes dispatch).
        if kind == "violation":
            self.dump_flight(f"violation:{payload.rule}: {payload.detail}", session)
        elif kind == "decision" and not payload.certified:
            self.dump_flight(f"decision-rejected: {payload.reason}", session)
        for callback in self._hooks[kind]:
            callback(session, payload)


class WitnessSession:
    """One guest machine's witnessing lifecycle against a shared service.

    Single-use: ``open -> begin_session -> (receive_hint | frames) ->
    end_session -> closed``.  Usable as a context manager; leaving the
    ``with`` block tears the session down even if it was never certified.
    Not itself thread-safe — one session serves one guest — but any
    number of sessions may run concurrently against one service.
    """

    def __init__(self, service: WitnessService, machine: Machine) -> None:
        self.service = service
        self.machine: Machine | None = machine  # None once closed
        self.config = service.config
        # Both assigned by WitnessService.open_session.
        self.id = 0
        self.sampler_seed = 0
        self.vspec: VSpec | None = None
        self.report = SessionReport()
        self._state = "open"  # open -> witnessing -> ended | closed
        self._sampler: ScreenshotSampler | None = None
        self._display: DisplayValidator | None = None
        self._tracker: InteractionTracker | None = None
        self._text_verifier: TextVerifier | None = None
        self._image_verifier: ImageVerifier | None = None
        self._diff: DifferentialDetector | None = None
        #: The focus-outline search carried across frames, fed the
        #: detector's per-sample change boxes (None with caching off).
        self._outline_search: OutlineSearch | None = None
        self._tracer = None  # SpanTracer when config.tracing, else None
        self._last_sample_ms = 0.0
        self._last_offset = 0
        #: Viewport tracking: ``(offset, input boxes in frame coordinates
        #: at that offset)`` of the last frame located with a score at or
        #: above the floor, or ``None`` (see :meth:`_unmoved_offset`).
        self._tracking: tuple | None = None
        self._observing = False
        self._tracker_violations_seen = 0
        self._clean_start_pending = False
        # Unrecoverable-fault accounting (each one is already a
        # refusal-causing violation); at config.max_session_faults the
        # session is quarantined: sampling stops, certification refuses.
        self._fault_count = 0
        self._quarantined = False

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "WitnessSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- extension-facing API (the three APIs of §IV-A) --------------------

    def begin_session(self, vspec: VSpec) -> None:
        """Start witnessing (the ``vWitness_begin`` API)."""
        if self._state == "witnessing":
            raise RuntimeError("a session is already active")
        if self._state in ("ended", "closed"):
            raise RuntimeError(
                f"this session handle is {self._state}; open a new session from the service"
            )
        t0 = time.perf_counter()
        self._state = "witnessing"
        self.vspec = vspec
        self.report = SessionReport()
        text_cache, image_cache = self.service.session_cache_views()
        self._tracer = self.service.session_tracer(self.id)
        chunk_size = PREDICT_CHUNK if self.config.batched else 1
        self._text_verifier = TextVerifier(
            self.service.text_model,
            cache=text_cache,
            chunk_size=chunk_size,
            tracer=self._tracer,
            faults=self.service.fault_injector,
        )
        self._image_verifier = ImageVerifier(
            self.service.image_model,
            cache=image_cache,
            chunk_size=chunk_size,
            tracer=self._tracer,
            faults=self.service.fault_injector,
        )
        self._display = DisplayValidator(
            vspec, self._text_verifier, self._image_verifier, tracer=self._tracer
        )
        self._tracker = InteractionTracker(
            vspec, self.machine, self._text_verifier, self._image_verifier
        )
        self._tracker_violations_seen = 0
        self._diff = DifferentialDetector() if self.config.caching else None
        self._outline_search = OutlineSearch() if self.config.caching else None
        now = self.machine.clock.now()
        self._last_sample_ms = now
        self._sampler = ScreenshotSampler(
            now, seed=self.sampler_seed, periodic=self.config.periodic_sampling
        )
        if not self._observing:
            self.machine.clock.add_observer(self._on_clock)
            self._observing = True
        self.report.timing.t_init = time.perf_counter() - t0
        # Clean-start checks (§V-A): sample immediately — the viewport must
        # be at the top and all inputs in their initial (empty) state.  The
        # check runs inside the sampling pipeline so frame 0's FrameOutcome
        # already carries any clean-start violation when hooks see it.
        # Mandatory: API-driven, not schedule-driven, so the sampler
        # drop/delay fault seams (which model lost *scheduled* samples)
        # never skip it.
        self._clean_start_pending = True
        self._process_sample(now, mandatory=True)

    def receive_hint(self, hint) -> None:
        """Queue an input hint and sample the display immediately.

        Hints arrive through an explicit API call, so vWitness reacts by
        taking an event-driven sample on top of the random schedule: the
        POF and the hinted value are verified against the display at the
        moment of the hint.  Extra samples only add observations — the
        random schedule (the TOCTOU defense) is unaffected.
        """
        if self._state != "witnessing" or self._tracker is None:
            raise RuntimeError("no active session")
        self._tracker.receive_hint(hint)
        # Mandatory: the hint-time sample may be the only observation of a
        # transient input state — the drop/delay seams model lost
        # *scheduled* samples, never the event-driven ones.
        self._process_sample(self.machine.clock.now(), mandatory=True)

    def end_session(self, request_body: dict) -> CertificationDecision:
        """Validate the submission and certify (the ``vWitness_end`` API)."""
        if self._state in ("ended", "closed"):
            raise RuntimeError(
                f"session already {self._state}: end_session may run once per session; "
                "open a new session from the service"
            )
        if self._state != "witnessing" or self.vspec is None:
            raise RuntimeError("no active session")
        # Final sample: whatever is on screen at submission time counts.
        # Mandatory: the sampler drop/delay seams must not skip it — a
        # tampered display cannot dodge certification by losing a frame.
        self._process_sample(self.machine.clock.now(), mandatory=True)
        t0 = time.perf_counter()
        decision = self.service.submission.certify(
            self.vspec,
            request_body,
            dict(self._tracker.tracked),
            self.report.violations + self._tracker.violations,
            self.report.display_ok,
        )
        self.report.timing.t_request = time.perf_counter() - t0
        self.service._dispatch("decision", self, decision)
        self.close(ended=True)
        return decision

    def close(self, ended: bool = False) -> None:
        """Tear the session down: detach, unregister, drop per-guest state.

        Idempotent; called automatically by ``end_session`` and on
        ``with``-block exit.  Dropping the machine and the
        sampler/tracker/display references here is deliberate teardown
        hygiene: a closed handle must not keep stale verifier state (or the
        guest machine's frame pipeline) alive, and any further API call
        fails loudly.
        """
        if self._state == "closed" or (self._state == "ended" and not ended):
            return
        if self._observing:
            self.machine.clock.remove_observer(self._on_clock)
            self._observing = False
        self.service.registry.unregister(self)
        self._state = "ended" if ended else "closed"
        # The guest's clock may hold observers that reach back to this
        # handle, which would make the whole guest a cycle.
        self.machine = None
        self.vspec = None
        self._sampler = None
        self._display = None
        self._tracker = None
        self._text_verifier = None
        self._image_verifier = None
        self._diff = None
        self._outline_search = None
        self._tracer = None

    @property
    def state(self) -> str:
        return self._state

    @property
    def active(self) -> bool:
        return self._state == "witnessing"

    @property
    def tracked_inputs(self) -> dict:
        if self._tracker is None:
            raise RuntimeError("no active session")
        return dict(self._tracker.tracked)

    # -- sampling ----------------------------------------------------------

    def _on_clock(self, now_ms: float) -> None:
        if self._sampler is None:
            return
        if self._sampler.due(now_ms):
            self._process_sample(now_ms)

    def _record_violation(self, violation: Violation) -> None:
        self.report.violations.append(violation)

    def _sync_tracker_violations(self) -> list:
        """Tracker violations recorded since the last sync."""
        if self._tracker is None:
            return []
        fresh = self._tracker.violations[self._tracker_violations_seen :]
        self._tracker_violations_seen = len(self._tracker.violations)
        return fresh

    def _note_fault(self) -> None:
        """Count an unrecoverable fault; quarantine at the config cap."""
        self._fault_count += 1
        if self._fault_count >= self.config.max_session_faults and not self._quarantined:
            self._quarantined = True
            self._record_violation(
                Violation(
                    "quarantine",
                    f"session quarantined after {self._fault_count} unrecoverable "
                    "validation faults",
                )
            )
            self.service.registry.note_quarantine()

    def _process_sample(self, now_ms: float, mandatory: bool = False) -> DisplayResult | None:
        """One sampled frame through the full validation pipeline.

        ``mandatory`` samples (the final submission-time one) ignore the
        sampler drop/delay fault seams: losing that frame must never let
        a tampered display certify.  A quarantined session processes no
        further frames — its report already carries the refusal-causing
        violations.
        """
        if self._quarantined:
            return None
        assert self._display is not None and self._tracker is not None
        faults = self.service.fault_injector
        if faults is not None and not mandatory:
            if faults.decide("sampler.drop"):
                # The sample never happens; the random schedule marches on.
                self.report.frames_dropped += 1
                self._sampler.schedule_next(now_ms)
                return None
            delay = faults.sampler_delay_ms()
            if delay > 0.0:
                self.report.frames_delayed += 1
                self._sampler.defer(now_ms, delay)
                return None
        t0 = time.perf_counter()
        violations_before = len(self.report.violations)
        if self._tracer is not None:
            self._tracer.begin_frame(self.report.frames_sampled)
        with maybe_span(self._tracer, "frame.sample"):
            frame = self.machine.sample_framebuffer()
        pixels = frame.pixels
        if faults is not None and faults.decide("sampler.bitflip"):
            # Corruption hits mandatory samples too: a corrupted display
            # must fail validation, never dodge it.
            pixels = faults.corrupt_frame(pixels)
            self.report.frames_corrupted += 1

        changed = None
        if self._diff is not None:
            changed = self._diff.changed(pixels)
            self._outline_search.note_change(self._diff.change_box)
        nothing_changed = changed is not None and len(changed) == 0

        if nothing_changed and not self._tracker.has_pending:
            # Frame-cache fast path: identical frame, nothing pending.
            result = DisplayResult(ok=True, offset_y=self._last_offset, skipped_unchanged=True)
            self.report.frames_skipped += 1
        else:
            try:
                hint = self._unmoved_offset(changed)
                try:
                    with maybe_span(self._tracer, "frame.locate"):
                        offset, score = self._display.locate_viewport(
                            pixels, self._tracker.tracked, unmoved_from=hint
                        )
                except ValueError as exc:
                    # Viewport failure subsumes the clean-start offset check.
                    self._tracking = None
                    self._clean_start_pending = False
                    result = DisplayResult(ok=False)
                    self.report.display_ok = False
                    self._record_violation(Violation("viewport", str(exc)))
                    self._finish_frame(result, now_ms, t0, violations_before)
                    return result
                input_rects_frame = [
                    Rect(e.rect.x, e.rect.y - offset, e.rect.w, e.rect.h)
                    for e in self.vspec.input_entries()
                    if e.rect.y2 - offset > 0 and e.rect.y - offset < pixels.shape[0]
                ]
                pof_obs = extract_pofs(
                    pixels, input_rects=input_rects_frame, outline_search=self._outline_search
                )
                if pof_obs.present:
                    for violation in check_pof_consistency(pof_obs, input_rects_frame):
                        self._record_violation(Violation("pof-consistency", violation))
                self._tracker.on_frame(
                    pixels, offset, pof_obs, self._last_sample_ms, now_ms
                )
                result = self._display.validate(
                    pixels,
                    tracked_inputs=self._tracker.tracked,
                    pof_obs=pof_obs,
                    changed_rects=changed,
                    viewport=(offset, score),
                )
                self._last_offset = result.offset_y
                # The hint is returned only when it scores above the floor;
                # a fallback search lands elsewhere or scores below it.
                result.viewport_tracked = offset == hint and score >= VIEWPORT_SCORE_FLOOR
                self._tracking = (
                    (offset, input_rects_frame) if score >= VIEWPORT_SCORE_FLOOR else None
                )
                if not result.ok:
                    self.report.display_ok = False
            except RuntimeFaultError as exc:
                # The validation ladder ran out of rungs (injected or
                # organic).  Fail closed: the frame is invalid, the
                # session carries a refusal-causing violation, and
                # repeated faults quarantine it outright.
                self._tracking = None
                result = DisplayResult(ok=False)
                self.report.display_ok = False
                self._record_violation(
                    Violation("fault", f"{type(exc).__name__}: {exc}")
                )
                self._note_fault()
                self._finish_frame(result, now_ms, t0, violations_before)
                return result

        if self._clean_start_pending:
            self._clean_start_pending = False
            if result.offset_y != 0:
                self.report.display_ok = False
                self._record_violation(
                    Violation(
                        "clean-start",
                        f"session began with viewport at offset {result.offset_y}",
                    )
                )

        self._finish_frame(result, now_ms, t0, violations_before)
        return result

    def _unmoved_offset(self, changed: list | None) -> int | None:
        """The tracked offset if this frame provably has not scrolled, else None.

        That holds when every rectangle the differential detector reports
        (changes since the last validated pixels) lies inside an input
        box of the last located frame, taken at its offset and grown by
        the detector's dilation radius: typing, caret blinks and state
        toggles.  A scroll by k >= 1 rows moves every box border by k
        rows, which puts changes outside that margin.  Validation still
        re-verifies every entry a change touches, and the display
        validator still refuses the hint when its score falls below the
        floor (see :meth:`DisplayValidator.locate_viewport`).
        """
        if self._tracking is None or changed is None:
            return None  # nothing located yet, or no reference frame to diff
        offset, boxes = self._tracking
        margin = self._diff.merge_radius
        for rect in changed:
            if not any(
                box.x - margin <= rect.x
                and box.y - margin <= rect.y
                and rect.x2 <= box.x2 + margin
                and rect.y2 <= box.y2 + margin
                for box in boxes
            ):
                return None
        return offset

    def _finish_frame(
        self, result: DisplayResult, now_ms: float, t0: float, violations_before: int
    ) -> None:
        elapsed = time.perf_counter() - t0
        self.report.frame_results.append(result)
        self.report.frames_sampled += 1
        if result.viewport_tracked:
            self.report.frames_tracked += 1
            self.service.registry.note_tracked()
        self.report.timing.frame_times.append(elapsed)
        self.report.timing.frame_sample_times_ms.append(now_ms)
        if self._text_verifier is not None:
            self.report.text_invocations = self._text_verifier.invocations
            self.report.text_forwards = self._text_verifier.forwards
        if self._image_verifier is not None:
            self.report.image_invocations = self._image_verifier.invocations
            self.report.image_forwards = self._image_verifier.forwards
        self._last_sample_ms = now_ms
        if self._sampler is not None:
            self._sampler.schedule_next(now_ms)
        new_violations = tuple(self.report.violations[violations_before:])
        new_violations += tuple(self._sync_tracker_violations())
        outcome = FrameOutcome(
            index=self.report.frames_sampled - 1,
            sampled_at_ms=now_ms,
            elapsed_seconds=elapsed,
            ok=result.ok,
            offset_y=result.offset_y,
            skipped_unchanged=result.skipped_unchanged,
            failures=tuple(result.failures),
            new_violations=new_violations,
            viewport_tracked=result.viewport_tracked,
            plan_text_units=result.plan_text_units,
            plan_image_pairs=result.plan_image_pairs,
            text_retry_rounds=result.text_retry_rounds,
            text_forwards=result.text_forwards,
            image_forwards=result.image_forwards,
        )
        self.report.outcomes.append(outcome)
        # Seal the frame's trace BEFORE hook dispatch: a violation hook's
        # flight-recorder dump must already contain this frame.
        if self._tracer is not None:
            self._tracer.finish_frame(outcome)
        # All hook dispatch happens last, after the frame's report/sampler
        # bookkeeping is consistent: a raising hook propagates to whoever
        # drove the clock, but never leaves a half-recorded frame behind.
        for violation in new_violations:
            self.service._dispatch("violation", self, violation)
        self.service._dispatch("frame", self, outcome)
