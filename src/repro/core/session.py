"""Backward-compat single-session witness API (paper §III-B workflow).

The orchestration engine lives in :mod:`repro.core.service` now:
:class:`~repro.core.service.WitnessService` owns the heavyweight
resources and vends per-guest :class:`~repro.core.service.WitnessSession`
handles.  This module keeps the original single-session surface —
``VWitness`` and ``install_vwitness`` — as thin shims so every
pre-existing call site works unchanged: a ``VWitness`` is a dedicated
one-machine service plus the session handle currently open on it.
"""

from __future__ import annotations

from repro.core.service import (
    SessionReport,
    TRUSTED_STACK,
    WitnessConfig,
    WitnessService,
    WitnessSession,
)
from repro.core.submission import CertificationDecision
from repro.crypto.ca import CertificateAuthority
from repro.crypto.keys import MeasuredState, SealedSigningKey, generate_signing_key
from repro.vspec.spec import VSpec
from repro.web.hypervisor import Machine

__all__ = ["SessionReport", "VWitness", "install_vwitness"]


def install_vwitness(machine: Machine, ca: CertificateAuthority, subject: str = "client-1", **kwargs) -> "VWitness":
    """The compromise-free initial setup of §III-A.

    Generates ``K_pri``, seals it to the measured trusted stack, and has
    the CA certify ``K_pub``.
    """
    state = MeasuredState.measure(dict(TRUSTED_STACK))
    key = generate_signing_key()
    sealed = SealedSigningKey(key, state)
    certificate = ca.issue(subject, key.public_key())
    return VWitness(machine, sealed_key=sealed, measured_state=state, certificate=certificate, **kwargs)


class VWitness:
    """The trusted witness component running in dom0 (compat shim).

    Delegates to a private single-machine :class:`WitnessService`; the
    kwargs of the historical constructor map onto a
    :class:`WitnessConfig`.  ``batched=True`` enables frame-level plan
    batching (one vectorized forward per model kind per frame, chunked at
    :data:`~repro.nn.model.PREDICT_CHUNK` unit inputs).  New code should use the service API
    directly — it shares models, key material and caches across guests.
    """

    def __init__(
        self,
        machine: Machine,
        sealed_key: SealedSigningKey,
        measured_state: MeasuredState,
        certificate,
        text_model=None,
        image_model=None,
        batched: bool = False,
        caching: bool = True,
        sampler_seed: int = 0,
        periodic_sampling: bool = False,
        tracing: bool = False,
    ) -> None:
        config = WitnessConfig(
            batched=batched,
            caching=caching,
            sampler_seed=sampler_seed,
            periodic_sampling=periodic_sampling,
            tracing=tracing,
        )
        self.machine = machine
        self.service = WitnessService(
            config=config,
            text_model=text_model,
            image_model=image_model,
            sealed_key=sealed_key,
            measured_state=measured_state,
            certificate=certificate,
        )
        self._session: WitnessSession | None = None
        self._last_report = SessionReport()

    # -- compat attribute surface ------------------------------------------

    @property
    def submission(self):
        return self.service.submission

    @property
    def text_model(self):
        return self.service.text_model

    @property
    def image_model(self):
        return self.service.image_model

    @property
    def vspec(self) -> VSpec | None:
        return self._session.vspec if self._session is not None else None

    @property
    def report(self) -> SessionReport:
        """The active session's report, or the last ended session's."""
        if self._session is not None:
            return self._session.report
        return self._last_report

    # -- extension-facing API ------------------------------------------------

    def begin_session(self, vspec: VSpec) -> None:
        """Start witnessing (the ``vWitness_begin`` API)."""
        if self._session is not None and self._session.active:
            raise RuntimeError("a session is already active")
        # Pin the configured seed: every session of one VWitness samples on
        # the same schedule, exactly like the historical single-session API.
        self._session = self.service.open_session(
            self.machine, sampler_seed=self.service.config.sampler_seed
        )
        self._session.begin_session(vspec)

    def receive_hint(self, hint) -> None:
        """Queue an input hint and sample the display immediately."""
        if self._session is None or not self._session.active:
            raise RuntimeError("no active session")
        self._session.receive_hint(hint)

    def end_session(self, request_body: dict) -> CertificationDecision:
        """Validate the submission and certify (the ``vWitness_end`` API).

        Teardown hygiene: the per-session sampler/tracker/display state is
        dropped with the session handle, so a second ``end_session`` (or a
        late ``receive_hint``) fails loudly instead of re-certifying stale
        state.
        """
        if self._session is None:
            raise RuntimeError(
                "no active session: end_session may only follow begin_session"
            )
        session = self._session
        try:
            decision = session.end_session(request_body)
        finally:
            if not session.active:
                self._last_report = session.report
                self._session = None
        return decision

    @property
    def tracked_inputs(self) -> dict:
        if self._session is None:
            raise RuntimeError("no active session")
        return self._session.tracked_inputs

    def telemetry(self):
        """The wrapped service's federated telemetry snapshot."""
        return self.service.telemetry()
