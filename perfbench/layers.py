"""Per-layer spans for the traced run, recorded from the benchmark's files.

``LayerTracer.install`` wraps public functions of each witness layer for
the duration of a traced pass and ``uninstall`` restores them.  Spans
nest: each records its duration and its self time (duration minus the
wrapped calls it contains), so ``display.collect_self`` is the self time
of ``DisplayValidator.validate``, i.e. validate minus verifier execute.
"""

from __future__ import annotations

import functools
from collections import defaultdict

import numpy as np

import repro.core.service as service_module
from repro.core.caches import DifferentialDetector
from repro.core.display import DisplayValidator
from repro.core.interaction import InteractionTracker
from repro.core.service import WitnessSession
from repro.core.submission import SubmissionValidator
from repro.core.verifiers import ImageVerifier, TextVerifier
from repro.server.webserver import WebServer
from repro.web.browser import Browser

#: ``(layer, owner, attribute)``: the function each layer's span wraps.
WRAPPED = (
    ("display.locate", DisplayValidator, "locate_viewport"),
    ("pof.extract", service_module, "extract_pofs"),
    ("caches.diff", DifferentialDetector, "changed"),
    ("display.validate", DisplayValidator, "validate"),
    ("verifiers.execute", TextVerifier, "execute_plan"),
    ("verifiers.execute", ImageVerifier, "execute_plan"),
    ("server.register", WebServer, "register_page"),
    ("server.vspec", WebServer, "vspec_for"),
    ("service.begin", WitnessSession, "begin_session"),
    ("interaction.track", InteractionTracker, "on_frame"),
    ("submission.certify", SubmissionValidator, "certify"),
    ("server.verify", WebServer, "verify"),
    ("guest.paint", Browser, "paint"),
)

#: Layers reported, in order; ``display.collect_self`` is derived.
LAYERS = (
    "display.locate",
    "pof.extract",
    "caches.diff",
    "display.validate",
    "display.collect_self",
    "verifiers.execute",
    "server.register",
    "server.vspec",
    "service.begin",
    "interaction.track",
    "submission.certify",
    "server.verify",
    "guest.paint",
)

#: Spans that only contain other work: their self time is glue, not a layer.
CONTAINERS = ("service.begin",)
#: Guest work, excluded from witness attribution.
GUEST = ("guest.paint",)


class LayerTracer:
    """Counts calls, busy time and self time per layer while installed."""

    def __init__(self, clock) -> None:
        self._clock = clock
        self._stack: list = []
        self._undo: list = []
        self.calls: dict = defaultdict(int)
        self.busy: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self.durations: dict = defaultdict(list)
        self.self_durations: dict = defaultdict(list)

    def install(self) -> None:
        for layer, owner, attribute in WRAPPED:
            original = getattr(owner, attribute)
            setattr(owner, attribute, self._wrap(layer, original))
            self._undo.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def _wrap(self, layer: str, original):
        stack = self._stack
        clock = self._clock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[layer] += 1
                self.busy[layer] += elapsed
                self.self_time[layer] += elapsed - children
                self.durations[layer].append(elapsed)
                self.self_durations[layer].append(elapsed - children)

        return traced

    def attributed_s(self) -> float:
        """Witness seconds inside some work layer (containers and guest excluded)."""
        return sum(
            seconds
            for layer, seconds in self.self_time.items()
            if layer not in CONTAINERS and layer not in GUEST
        )

    def metrics(self, passes: int) -> dict:
        """``<layer>.calls``/``.busy_s`` per pass and ``.ms_p50`` per call."""
        out = {}
        for layer in LAYERS:
            if layer == "display.collect_self":
                source = "display.validate"
                busy = self.self_time[source]
                durations = self.self_durations[source]
            else:
                source = layer
                busy = self.busy[layer]
                durations = self.durations[layer]
            out[f"{layer}.calls"] = (self.calls[source] / passes, "count")
            out[f"{layer}.busy_s"] = (busy / passes, "s")
            p50 = float(np.percentile(durations, 50)) * 1e3 if durations else 0.0
            out[f"{layer}.ms_p50"] = (p50, "ms")
        return out
