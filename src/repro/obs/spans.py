"""Frame-span tracing: per-stage latency of a frame's life as a tree.

A sampled frame flows ``frame.sample`` → ``frame.locate`` →
``plan.collect`` → ``plan.execute`` → per-kind ``forward.*`` →
``verdict.scatter``.  A
:class:`SpanTracer` times each stage with :func:`time.perf_counter`
(wall time never enters a verdict or fingerprint) and records two
things per span:

* an observation into a per-stage latency :class:`~repro.obs.metrics.\
Histogram` (shared service-wide, so percentiles aggregate over every
  traced session), and
* a span record ``{stage, parent, ms, thread}`` appended to the current
  :class:`FrameTrace` — the flight-recorder evidence unit.

Design constraints, in order:

1. **Disabled tracing is free.**  Call sites guard with
   :func:`maybe_span`, which returns one shared no-op span object when
   the tracer is ``None`` — no allocation, no lock, no branch beyond the
   ``is None`` test.  The function is ``@hot_path``-decorated and
   ``repro.obs`` sits inside witness-lint's ``HOTPATH_SCOPE``, so the
   fast path is statically checked allocation-free.
2. **Tracing never changes a verdict.**  The tracer only reads
   ``perf_counter`` and appends to Python lists; it touches no pixels,
   no caches, no RNG.  The soak harness asserts fingerprints are
   bit-identical with tracing on vs off.
3. **Thread safety without a hot lock.**  Span *stacks* (for parentage)
   are thread-local per tracer, so spans opened on different threads
   each nest within their own stack.  A span opened on a thread with an
   empty stack parents to the synthetic root ``"frame"``.  Appends to the shared
   ``FrameTrace.spans`` list are atomic under the GIL; histogram
   observations take the metrics registry's own data lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis import hot_path

if TYPE_CHECKING:  # import-light on purpose: the span fast path only
    # needs the registry's type for annotations.
    from repro.obs.metrics import MetricsRegistry

#: Bucket bounds (milliseconds) for per-stage span latency histograms.
#: Finer at the bottom than the registry's default buckets: stages like
#: ``verdict.scatter`` routinely finish in tens of microseconds.
SPAN_BUCKETS_MS = (0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000)

#: The synthetic root stage every top-level span parents to.
ROOT_STAGE = "frame"

#: Instrument-name prefix of span histograms in the metrics registry.
SPAN_PREFIX = "span_ms."

#: Canonical stage taxonomy (the stable observability surface; per-kind
#: stages are suffixed ``.text`` / ``.image``).  New pipeline stages must
#: be added here so telemetry consumers can rely on the vocabulary.
STAGES = (
    "frame",
    "frame.sample",
    "frame.locate",
    "plan.collect",
    "plan.execute",
    "forward.text",
    "forward.image",
    "verdict.scatter",
)


class _NullSpan:
    """The shared do-nothing span: ``maybe_span(None, ...)`` returns it."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The singleton no-op span — disabled tracing allocates nothing.
NULL_SPAN = _NullSpan()


@hot_path
def maybe_span(tracer: "SpanTracer | None", stage: str):
    """``tracer.span(stage)`` when tracing, the shared no-op otherwise.

    The designated call-site guard: hot pipeline code writes
    ``with maybe_span(self.tracer, "plan.execute"):`` unconditionally and
    pays one ``is None`` test when tracing is off.
    """
    if tracer is None:
        return NULL_SPAN
    return tracer.span(stage)


class _Span:
    """One timed stage; a context manager vended by :meth:`SpanTracer.span`."""

    __slots__ = ("tracer", "stage", "parent", "t0")

    def __init__(self, tracer: "SpanTracer", stage: str) -> None:
        self.tracer = tracer
        self.stage = stage
        self.parent = ROOT_STAGE
        self.t0 = 0.0

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        if stack:
            self.parent = stack[-1].stage
        stack.append(self)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed_ms = (time.perf_counter() - self.t0) * 1000.0
        stack = self.tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self.tracer._observe(self.stage, self.parent, elapsed_ms)
        return False


@dataclass
class FrameTrace:
    """Everything the tracer saw of one frame (the flight-record unit)."""

    session_id: int
    index: int
    #: Span records ``{stage, parent, ms, thread}`` in completion order.
    spans: list = field(default_factory=list)
    ok: bool = True
    offset_y: int = 0
    skipped_unchanged: bool = False
    plan_text_units: int = 0
    plan_image_pairs: int = 0
    text_retry_rounds: int = 0
    text_forwards: int = 0
    image_forwards: int = 0
    #: Shared-digest-cache hit/miss delta over this frame.  Exact for a
    #: lone session; approximate under concurrent sessions (the cache is
    #: shared by design).
    cache_hits: int = 0
    cache_misses: int = 0
    failures: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    elapsed_ms: float = 0.0

    def as_dict(self) -> dict:
        """A JSON-serializable record of this frame."""
        return {
            "session_id": self.session_id,
            "index": self.index,
            "ok": self.ok,
            "offset_y": self.offset_y,
            "skipped_unchanged": self.skipped_unchanged,
            "plan_text_units": self.plan_text_units,
            "plan_image_pairs": self.plan_image_pairs,
            "text_retry_rounds": self.text_retry_rounds,
            "text_forwards": self.text_forwards,
            "image_forwards": self.image_forwards,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "failures": list(self.failures),
            "violations": list(self.violations),
            "elapsed_ms": self.elapsed_ms,
            "spans": list(self.spans),
        }


class SpanTracer:
    """One session's span tracer over a service-shared metrics registry.

    Vended by :meth:`repro.core.service.WitnessService.session_tracer`
    only when ``WitnessConfig.tracing`` is on; pipeline code receives
    ``tracer=None`` otherwise and :func:`maybe_span` short-circuits.
    """

    def __init__(
        self,
        session_id: int,
        metrics: "MetricsRegistry",
        recorder=None,
        cache=None,
    ) -> None:
        self.session_id = session_id
        self.metrics = metrics
        #: Optional :class:`repro.obs.flight.FlightRecorder` receiving
        #: every finished :class:`FrameTrace`.
        self.recorder = recorder
        #: Optional :class:`repro.core.caches.DigestCache` whose hit/miss
        #: counters are delta'd per frame.
        self.cache = cache
        self._tls = threading.local()
        #: The frame currently being traced (``begin_frame`` to
        #: ``finish_frame``).
        self._trace: FrameTrace | None = None
        self._cache_hits0 = 0
        self._cache_misses0 = 0

    # -- span API ----------------------------------------------------------

    @hot_path
    def span(self, stage: str) -> _Span:
        """A context manager timing ``stage`` (nested spans form a tree)."""
        return _Span(self, stage)

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def _observe(self, stage: str, parent: str, elapsed_ms: float) -> None:
        self.metrics.histogram(SPAN_PREFIX + stage, SPAN_BUCKETS_MS).observe(elapsed_ms)
        trace = self._trace
        if trace is not None:
            trace.spans.append(
                {
                    "stage": stage,
                    "parent": parent,
                    "ms": elapsed_ms,
                    "thread": threading.current_thread().name,
                }
            )

    # -- frame lifecycle ---------------------------------------------------

    def begin_frame(self, index: int) -> None:
        """Open the trace for frame ``index`` (called by the session)."""
        if self.cache is not None:
            self._cache_hits0 = self.cache.hits
            self._cache_misses0 = self.cache.misses
        self._trace = FrameTrace(session_id=self.session_id, index=index)

    def finish_frame(self, outcome) -> FrameTrace | None:
        """Seal the current trace from a frame's ``FrameOutcome``.

        Observes the whole-frame latency under the root stage, pushes the
        trace into the flight recorder, and returns it.  Must run before
        hook dispatch so a violation dump already contains this frame.
        """
        trace = self._trace
        if trace is None:
            return None
        self._trace = None
        trace.ok = outcome.ok
        trace.offset_y = outcome.offset_y
        trace.skipped_unchanged = outcome.skipped_unchanged
        trace.plan_text_units = outcome.plan_text_units
        trace.plan_image_pairs = outcome.plan_image_pairs
        trace.text_retry_rounds = outcome.text_retry_rounds
        trace.text_forwards = outcome.text_forwards
        trace.image_forwards = outcome.image_forwards
        trace.failures = [
            {"kind": f.kind, "rect": list(f.rect), "reason": f.reason}
            for f in outcome.failures
        ]
        trace.violations = [
            {"rule": v.rule, "detail": v.detail} for v in outcome.new_violations
        ]
        trace.elapsed_ms = outcome.elapsed_seconds * 1000.0
        if self.cache is not None:
            trace.cache_hits = self.cache.hits - self._cache_hits0
            trace.cache_misses = self.cache.misses - self._cache_misses0
        self.metrics.histogram(SPAN_PREFIX + ROOT_STAGE, SPAN_BUCKETS_MS).observe(
            trace.elapsed_ms
        )
        if self.recorder is not None:
            self.recorder.record(trace)
        return trace


def span_snapshots(metrics: "MetricsRegistry | None") -> dict:
    """Per-stage histogram snapshots keyed by stage name.

    Strips the ``span_ms.`` instrument prefix; returns ``{}`` when no
    traced session has run.
    """
    if metrics is None:
        return {}
    histograms = metrics.snapshot()["histograms"]
    return {
        name[len(SPAN_PREFIX):]: snap
        for name, snap in histograms.items()
        if name.startswith(SPAN_PREFIX)
    }
