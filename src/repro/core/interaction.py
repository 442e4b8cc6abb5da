"""Interaction interpretation (paper §III-C2).

vWitness builds an independent record of the user's inputs from what it
*sees*: the untrusted extension hints positions and values, and vWitness
accepts an input update only when

* the hinted field is one of the VSPEC's declared inputs and the hint's
  position falls inside the expected bounding rectangle,
* the field is inside the current viewport (out-of-viewport updates are
  ignored),
* hardware I/O occurred in the sampling window (**user presence** — UI
  changes without interrupts are malware-forged),
* a POF is present on that field (**user attention** — the reflective-
  validation assumption only covers the focused field), and
* the hinted value is actually displayed in the field, verified by the
  text verifier (or a state appearance for visual inputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.display import input_value_cells
from repro.core.pof import POFObservation
from repro.core.verifiers import ImageVerifier, TextVerifier, structural_match
from repro.vision.components import Rect
from repro.vspec.spec import ManifestEntry, VSpec


@dataclass(frozen=True)
class Violation:
    """One rejected interaction event (with the rule that rejected it)."""

    rule: str
    detail: str


@dataclass
class FrameInteraction:
    """Per-frame interaction outcome."""

    accepted: dict = field(default_factory=dict)
    ignored: list = field(default_factory=list)
    violations: list = field(default_factory=list)


class InteractionTracker:
    """Maintains vWitness's independent record of user inputs."""

    def __init__(
        self,
        vspec: VSpec,
        machine,
        text_verifier: TextVerifier,
        image_verifier: ImageVerifier,
    ) -> None:
        self.vspec = vspec
        self.machine = machine
        self.text_verifier = text_verifier
        self.image_verifier = image_verifier
        self.tracked: dict = {
            entry.input_name: entry.initial_value for entry in vspec.input_entries()
        }
        self._pending: list = []
        self.violations: list = []
        # Samples elapsed since a POF was last seen on each field.  A hint
        # may be processed one or two samples after the user moved focus
        # (vWitness samples asynchronously), so "user attention" accepts a
        # POF observed within the last POF_MAX_AGE samples.  The residual
        # window is bounded by the sampler period and still requires the
        # hinted value to be displayed and hardware I/O to be present.
        self._pof_age: dict = {}

    #: Maximum sample-age of a POF for the user-attention rule.
    POF_MAX_AGE = 2

    # -- hint intake -------------------------------------------------------

    def receive_hint(self, hint) -> None:
        """Queue an extension hint for verification at the next sample."""
        self._pending.append(hint)

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    # -- per-frame processing ----------------------------------------------

    def on_frame(
        self,
        frame_pixels: np.ndarray,
        offset_y: int,
        pof_obs: POFObservation,
        window_start: float,
        window_end: float,
    ) -> FrameInteraction:
        """Verify pending hints against the sampled frame."""
        outcome = FrameInteraction()
        pending, self._pending = self._pending, []

        # Only the last hint per field matters: intermediate values were
        # superseded before vWitness sampled (continuous editing).
        latest: dict = {}
        for hint in pending:
            latest[hint.input_name] = hint

        frame_h = frame_pixels.shape[0]
        viewport = Rect(0, offset_y, self.vspec.width, frame_h)

        # Refresh per-field POF ages from this frame's observation.
        for entry in self.vspec.input_entries():
            if self._pof_on_field(pof_obs, entry, offset_y):
                self._pof_age[entry.input_name] = 0
            elif entry.input_name in self._pof_age:
                self._pof_age[entry.input_name] += 1

        for name, hint in latest.items():
            try:
                entry = self.vspec.entry_for_input(name)
            except KeyError:
                outcome.violations.append(
                    Violation("unknown-field", f"hint for undeclared input {name!r}")
                )
                continue

            hint_rect = Rect(*hint.rect)
            if not hint_rect.expanded(8).contains(entry.rect) and not entry.rect.expanded(8).contains(hint_rect):
                outcome.violations.append(
                    Violation(
                        "position",
                        f"hint rect {hint.rect} does not correspond to expected field "
                        f"{entry.rect.as_tuple()} for {name!r}",
                    )
                )
                continue

            if not entry.rect.intersects(viewport):
                outcome.ignored.append(name)  # out-of-viewport: ignored
                continue

            io_events = self.machine.io_events_between(window_start, window_end)
            if not io_events:
                outcome.violations.append(
                    Violation(
                        "user-presence",
                        f"input update on {name!r} with no hardware I/O in the window",
                    )
                )
                continue

            if self._pof_age.get(name, self.POF_MAX_AGE + 1) > self.POF_MAX_AGE:
                outcome.violations.append(
                    Violation("user-attention", f"input update on {name!r} without a recent POF")
                )
                continue

            if not self._displayed(entry, str(hint.value), frame_pixels, offset_y):
                outcome.violations.append(
                    Violation(
                        "display",
                        f"hinted value {hint.value!r} for {name!r} is not what the display shows",
                    )
                )
                continue

            self.tracked[name] = str(hint.value)
            outcome.accepted[name] = str(hint.value)

        self.violations.extend(outcome.violations)
        return outcome

    # -- checks ------------------------------------------------------------------

    def _pof_on_field(self, pof_obs: POFObservation, entry: ManifestEntry, offset_y: int) -> bool:
        """Does any POF cue sit on this field (frame coordinates)?"""
        field_rect = Rect(entry.rect.x, entry.rect.y - offset_y, entry.rect.w, entry.rect.h)
        grown = field_rect.expanded(8)
        cues = pof_obs.outlines + pof_obs.carets + pof_obs.highlights
        return any(grown.intersects(cue) for cue in cues)

    def _displayed(
        self, entry: ManifestEntry, value: str, frame_pixels: np.ndarray, offset_y: int
    ) -> bool:
        """Is the hinted value what the display actually shows?"""
        if entry.kind == "input":
            verdicts = self.text_verifier.verify_cells(
                frame_pixels,
                input_value_cells(entry, value),
                offset_x=0,
                offset_y=offset_y,
                background=252.0,
            )
            return bool(np.all(verdicts))
        if entry.kind in ("checkbox", "radio", "select"):
            if value not in entry.state_appearances:
                return False
            fy = entry.rect.y - offset_y
            if fy < 0 or fy + entry.rect.h > frame_pixels.shape[0]:
                return False
            observed = frame_pixels[fy : fy + entry.rect.h, entry.rect.x : entry.rect.x2]
            return structural_match(observed, entry.state_appearances[value])
        if entry.kind == "scroll-v":
            # The display validator checks list content; the selected item
            # must be one of the list's legal values.
            nested = self.vspec.nested.get(entry.nested_id)
            if nested is None:
                return False
            legal = {"".join(c.char for c in sub.chars) for sub in nested.entries}
            return value.replace(" ", "") in legal or value == entry.initial_value
        return False
