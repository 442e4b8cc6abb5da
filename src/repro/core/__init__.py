"""vWitness core: the trusted witness component (paper §III-§IV).

The pipeline, per sampled frame:

1. :mod:`repro.core.sampler` — random-interval frame sampling (TOCTOU
   defense).
2. :mod:`repro.core.pof` — point-of-focus extraction from pixels and the
   three consistency rules.
3. :mod:`repro.core.display` — viewport detection and element validation
   against the VSPEC using the CNN verifiers
   (:mod:`repro.core.verifiers`), with differential detection and caching
   (:mod:`repro.core.caches`).
4. :mod:`repro.core.interaction` — hint verification, user presence and
   attention checks, tracked-input state.
5. :mod:`repro.core.submission` — the VSPEC validation function and
   request certification under the sealed key.

:class:`repro.core.service.WitnessService` owns the heavyweight resources
(models, sealed key, shared caches) and vends per-guest
:class:`repro.core.service.WitnessSession` handles that wire these
together behind the three extension APIs.  :mod:`repro.core.timing`
models the request delay
``L = T(init) + sum T(frame_i) + T(request) - T(session)`` of §VI-B.
"""

from repro.core.verifiers import ImageVerifier, TextVerifier
from repro.core.pof import POFObservation, check_pof_consistency, extract_pofs
from repro.core.caches import DifferentialDetector, DigestCache
from repro.core.sampler import ScreenshotSampler
from repro.core.display import DisplayResult, DisplayValidator, ElementFailure
from repro.core.interaction import InteractionTracker, Violation
from repro.core.submission import CertificationDecision, SubmissionValidator
from repro.core.service import (
    FrameOutcome,
    SessionRegistry,
    SessionReport,
    WitnessConfig,
    WitnessService,
    WitnessSession,
)
from repro.core.timing import SessionTiming, cutoff_session_length, request_delay

__all__ = [
    "WitnessService",
    "WitnessSession",
    "WitnessConfig",
    "FrameOutcome",
    "SessionRegistry",
    "TextVerifier",
    "ImageVerifier",
    "POFObservation",
    "extract_pofs",
    "check_pof_consistency",
    "DigestCache",
    "DifferentialDetector",
    "ScreenshotSampler",
    "DisplayValidator",
    "DisplayResult",
    "ElementFailure",
    "InteractionTracker",
    "Violation",
    "SubmissionValidator",
    "CertificationDecision",
    "SessionReport",
    "SessionTiming",
    "request_delay",
    "cutoff_session_length",
]
