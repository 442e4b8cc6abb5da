"""``repro.obs``: frame-span tracing, unified telemetry, flight recording.

Three pieces (see each module's docstring):

* :mod:`repro.obs.spans` — the per-frame span tracer and its stage
  taxonomy; off by default, enabled by ``WitnessConfig.tracing``.
* :mod:`repro.obs.telemetry` — the hub federating every stats island
  into one :class:`TelemetrySnapshot` (``WitnessService.telemetry()``).
* :mod:`repro.obs.flight` — the bounded ring of recent frame traces
  that violations and divergences dump as JSON artifacts.

* :mod:`repro.obs.metrics` — the bucketed histograms behind the span
  latencies.

This ``__init__`` stays import-light on purpose: the verifiers import
:func:`maybe_span` on the hot path, so pulling the telemetry hub (which
reaches into :mod:`repro.nn.infer`) is
deferred until someone actually asks for a snapshot.
"""

from repro.obs.flight import FlightRecorder
from repro.obs.spans import (
    NULL_SPAN,
    ROOT_STAGE,
    SPAN_BUCKETS_MS,
    STAGES,
    FrameTrace,
    SpanTracer,
    maybe_span,
    span_snapshots,
)

__all__ = [
    "NULL_SPAN",
    "ROOT_STAGE",
    "SPAN_BUCKETS_MS",
    "STAGES",
    "FlightRecorder",
    "FrameTrace",
    "SpanTracer",
    "TelemetrySnapshot",
    "build_snapshot",
    "maybe_span",
    "span_snapshots",
]


def __getattr__(name: str):
    # Lazy: the telemetry hub imports infer, which the span fast
    # path must not drag in at import time.
    if name in ("TelemetrySnapshot", "build_snapshot"):
        from repro.obs import telemetry

        return getattr(telemetry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
