"""Display validation (paper §III-C1).

Three steps per sampled frame: (1) determine the visible view port by
matching the frame against the VSPEC's expected appearance, (2) find the
UI elements within the view port, (3) validate each element's rendering
with the CNN verifiers.  Regions with no elements must match the page
background.  Stateful inputs are validated against the appearance of the
currently *tracked* state, and POF pixels are subtracted first.

Step (1) is an exhaustive search (:func:`~repro.vision.match.best_vertical_offset`)
unless the session can prove the viewport has not moved: when every
change since the last located frame lies inside an input box at that
frame's offset, :meth:`DisplayValidator.locate_viewport` scores the
frame at that offset alone (viewport tracking) and searches only if the
score falls below :data:`VIEWPORT_SCORE_FLOOR`; the method's docstring
gives the security argument.  The background check of regions without
elements runs on every validated frame, limited to what changed.

Step (3) is two-phase.  A **collect** pass walks the whole manifest and
funnels every CNN unit input of the frame — glyph tiles from all text
entries, 32x32 observed/expected pairs from all image regions — into a
fresh :class:`~repro.core.verifiers.ValidationPlan`, recording a
deferred failure emitter per entry (structural/chrome checks are plain
numpy and resolve during collection).  An **execute** pass then hands
the plan to each verifier (one round per model kind plus one per
alignment-retry ring) and the emitters scatter verdicts back into
per-entry :class:`ElementFailure`\\ s, in manifest order.  How many rows
each model forward takes is the verifiers' ``chunk_size``; the verdicts
are identical for every chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pof import POFObservation, mask_pofs
from repro.obs.spans import maybe_span
from repro.raster.stacks import reference_stack
from repro.core.verifiers import (
    ImageVerifier,
    TextVerifier,
    ValidationPlan,
    structural_match,
)
from repro.raster.text import char_advance
from repro.vision.components import Rect
from repro.vision.image import DTYPE as RASTER_DTYPE
from repro.vision.image import Image
from repro.vision.match import PageSpectrum, best_vertical_offset, normalized_cross_correlation
from repro.vspec.spec import CharCell, ManifestEntry, VSpec
from repro.web.layout import INPUT_PAD_X
from repro.web.render import DEFAULT_POF, draw_input_value

#: Minimum NCC score for viewport identification; below this the frame
#: does not look like any window of the expected page at all.
VIEWPORT_SCORE_FLOOR = 0.35


@dataclass(frozen=True)
class ElementFailure:
    """One element that failed validation."""

    kind: str
    rect: tuple
    reason: str


@dataclass
class DisplayResult:
    """Outcome of validating one sampled frame."""

    ok: bool
    offset_y: int = 0
    viewport_score: float = 0.0
    failures: list = field(default_factory=list)
    text_invocations: int = 0
    image_invocations: int = 0
    entries_checked: int = 0
    skipped_unchanged: bool = False
    #: The viewport was tracked: scored at the last located offset (every
    #: change since lay inside an input box) instead of searched.
    viewport_tracked: bool = False
    # Plan-size statistics (frame-level batching observability): how many
    # unit inputs the collect phase gathered and how many model forward
    # passes the execute phase actually ran for this frame.
    plan_text_units: int = 0
    plan_image_pairs: int = 0
    text_retry_rounds: int = 0
    text_forwards: int = 0
    image_forwards: int = 0


class DisplayValidator:
    """Validates sampled frames against one VSPEC."""

    def __init__(
        self,
        vspec: VSpec,
        text_verifier: TextVerifier,
        image_verifier: ImageVerifier,
        tracer=None,
    ) -> None:
        self.vspec = vspec
        self.text_verifier = text_verifier
        self.image_verifier = image_verifier
        #: Optional :class:`repro.obs.spans.SpanTracer` timing the
        #: collect/execute/scatter phases; ``None`` = no-op fast path.
        self.tracer = tracer
        #: Viewport search targets: the pristine page, the page under the
        #: tracked state (keyed by it) and each nested scrollable's.
        self._pristine = PageSpectrum(vspec.expected)
        self._stateful_key: tuple | None = None
        self._stateful: PageSpectrum | None = None
        self._nested: dict = {}
        self._padded_key: tuple | None = None
        self._padded_expected: np.ndarray | None = None

    # -- viewport -----------------------------------------------------------

    def _expected_for(self, tracked_inputs: dict | None) -> PageSpectrum:
        """The expected appearance under the currently *tracked* state.

        The VSPEC raster shows every input empty/initial, but a sampled
        mid-session frame shows whatever the user has entered so far.  On
        pages with repetitive structure (tall forms), matching a filled
        frame against the empty-state raster can make a *wrong* offset
        outscore the true one — the soak harness caught exactly that —
        so the search target composes the tracked state into the raster:
        typed values drawn at each input's text origin (reference stack),
        and each visual input's per-state appearance pasted in.  Cached
        per tracked-state, which only changes on accepted hints.

        Returned as the raster's :class:`PageSpectrum` (raster in
        ``.pixels``), kept beside it: the pristine page's is built once
        per validator, and recomposition refreshes only the spectrum of
        the entries it redraws.
        """
        tracked_inputs = tracked_inputs or {}
        overlays: dict = {}
        for entry in self.vspec.input_entries():
            value = str(tracked_inputs.get(entry.input_name, entry.initial_value))
            if value != str(entry.initial_value) and (
                entry.kind == "input" or value in entry.state_appearances
            ):
                overlays[entry.input_name] = (entry, value)
        if not overlays:
            self._stateful_key = None
            return self._pristine
        key = tuple(sorted((name, v) for name, (_e, v) in overlays.items()))
        if key == self._stateful_key and self._stateful is not None:
            return self._stateful
        stack = reference_stack()
        if self._stateful_key is not None and self._stateful is not None:
            # Incremental recomposition: during active typing the state
            # changes nearly every frame, but almost always in a single
            # field — restore just the changed entries' regions from the
            # pristine raster and redraw those, instead of copying the
            # whole page raster per keystroke.
            target = self._stateful
            canvas = Image(target.pixels)
            prev = dict(self._stateful_key)
            new = {name: v for name, (_e, v) in overlays.items()}
            stale = {n for n in set(prev) | set(new) if prev.get(n) != new.get(n)}
            boxes = [self.vspec.entry_for_input(name).rect for name in stale]
            for box in boxes:
                canvas.pixels[box.y : box.y2, box.x : box.x2] = self.vspec.expected[
                    box.y : box.y2, box.x : box.x2
                ]
            todo = [overlays[n] for n in stale if n in overlays]
        else:
            canvas = Image(self.vspec.expected.copy())
            target = self._pristine.copy(canvas.pixels)
            todo = list(overlays.values())
            boxes = [entry.rect for entry, _v in todo]
        for entry, value in todo:
            box = entry.rect
            if entry.kind == "input":
                # clear_interior wipes the baked initial value (drawing
                # over it would overstrike) while preserving the border;
                # the helper shares the renderer's origin/truncation.
                draw_input_value(
                    canvas, box, value, entry.text_size, stack, clear_interior=True
                )
            else:
                canvas.pixels[box.y : box.y2, box.x : box.x2] = entry.state_appearances[value]
        for box in boxes:
            target.update(box)
        self._stateful_key = key
        self._stateful = target
        return target

    def locate_viewport(
        self,
        frame_pixels: np.ndarray,
        tracked_inputs: dict | None = None,
        unmoved_from: int | None = None,
    ):
        """(offset_y, score) of the frame within the expected appearance.

        ``tracked_inputs`` (the interaction tracker's current state) keeps
        the search target faithful to what an honest display shows
        mid-session; omitting it matches against the initial-state raster.

        ``unmoved_from`` is the viewport-tracking hint: the offset of an
        earlier frame this one provably has not scrolled away from (the
        session passes it when every differential change since that frame
        lies inside an input box, see
        :meth:`repro.core.service.WitnessSession._unmoved_offset`).  The frame
        is then scored at that offset alone, with the same
        :func:`~repro.vision.match.normalized_cross_correlation` against
        the same target the search uses, so the score is bit-identical to
        the one the search reports there.  A score at or above
        :data:`VIEWPORT_SCORE_FLOOR` is returned as is; anything lower
        falls back to the exhaustive search in the same call.

        Why skipping the search is safe: a tracked frame differs from the
        frame located at ``unmoved_from`` only inside input boxes at that
        offset (the differential reference holds the last re-validated
        pixels, so sub-threshold drift cannot accumulate outside them),
        and every entry intersecting a change is re-verified at that
        offset.  A scroll of k >= 1 rows moves the boxes' borders, so its
        changes land k rows outside a box (plus the diff's dilation) and
        the session never offers the hint; and a kept offset that no
        longer scores above the floor gets a full search.
        """
        if frame_pixels.shape[1] != self.vspec.width:
            raise ValueError(
                f"frame width {frame_pixels.shape[1]} != VSPEC width {self.vspec.width} "
                "(dishonest extension width?)"
            )
        target = self._expected_for(tracked_inputs)
        if frame_pixels.shape[0] > self.vspec.height:
            # Page shorter than the client viewport: the browser shows
            # background below the page end, so the search target is the
            # expected appearance padded with background rows.  Keyed by
            # the tracked-state key (None = initial-state raster), never
            # by array identity — a recycled id must not alias the cache.
            pad_key = (self._stateful_key, frame_pixels.shape[0])
            if self._padded_key != pad_key or self._padded_expected is None:
                pad_rows = frame_pixels.shape[0] - self.vspec.height
                self._padded_expected = np.vstack(
                    [target.pixels, np.full((pad_rows, self.vspec.width), self.vspec.background, dtype=RASTER_DTYPE)]
                )
                self._padded_key = pad_key
            target = self._padded_expected
        if unmoved_from is not None:
            page = target.pixels if isinstance(target, PageSpectrum) else target
            rows = frame_pixels.shape[0]
            if 0 <= unmoved_from <= page.shape[0] - rows:
                score = normalized_cross_correlation(
                    frame_pixels, page[unmoved_from : unmoved_from + rows]
                )
                if score >= VIEWPORT_SCORE_FLOOR:
                    return unmoved_from, score
        match = best_vertical_offset(frame_pixels, target)
        return match.offset, match.score

    # -- validation --------------------------------------------------------------

    def validate(
        self,
        frame_pixels: np.ndarray,
        tracked_inputs: dict | None = None,
        pof_obs: POFObservation | None = None,
        changed_rects: list | None = None,
        viewport: tuple | None = None,
    ) -> DisplayResult:
        """Validate one frame.

        Args:
            tracked_inputs: the interaction tracker's current name->value
                map (stateful elements are expected to display it).
            pof_obs: POFs already extracted from this frame (their pixels
                are masked before content verification).
            changed_rects: frame-coordinate rectangles from differential
                detection; only entries intersecting them are re-verified.
                ``None`` means verify everything visible.
            viewport: optional precomputed ``(offset, score)`` from
                :meth:`locate_viewport` (avoids locating twice per frame).
        """
        tracked_inputs = tracked_inputs or {}
        t0_text = self.text_verifier.invocations
        t0_image = self.image_verifier.invocations
        t0_text_fwd = self.text_verifier.forwards
        t0_image_fwd = self.image_verifier.forwards
        result = DisplayResult(ok=True)

        if viewport is not None:
            offset, score = viewport
        else:
            with maybe_span(self.tracer, "frame.locate"):
                offset, score = self.locate_viewport(frame_pixels, tracked_inputs)
        result.offset_y = offset
        result.viewport_score = score
        if score < VIEWPORT_SCORE_FLOOR:
            result.ok = False
            result.failures.append(
                ElementFailure("viewport", (0, offset, 0, 0), f"no viewport match (score={score:.2f})")
            )
            return result

        frame_h = frame_pixels.shape[0]
        viewport = Rect(0, offset, self.vspec.width, frame_h)

        clean = frame_pixels
        if pof_obs is not None and pof_obs.present:
            clean = mask_pofs(frame_pixels, pof_obs)

        entries = self.vspec.visible_entries(viewport)
        if changed_rects is not None:
            page_changed = [r.translated(0, offset) for r in changed_rects]
            entries = [
                e for e in entries if any(e.rect.expanded(6).intersects(r) for r in page_changed)
            ]
            if not changed_rects:
                result.skipped_unchanged = True

        # Phase 1 (collect): gather every unit input of the frame into a
        # fresh plan; each entry registers a deferred emitter that
        # scatters the executed verdicts back into per-entry failures, in
        # entry order.
        plan = ValidationPlan()
        with maybe_span(self.tracer, "plan.collect"):
            deferred: list = []
            for entry in entries:
                self._collect_entry(
                    entry, clean, offset, viewport, tracked_inputs, plan, deferred
                )
        result.entries_checked = len(entries)

        # Phase 2 (execute): one round per model kind (plus the
        # alignment-retry rings), then scatter.
        with maybe_span(self.tracer, "plan.execute"):
            text_verdicts = self.text_verifier.execute_plan(plan)
            image_verdicts = self.image_verifier.execute_plan(plan)
        with maybe_span(self.tracer, "verdict.scatter"):
            for emit in deferred:
                emit(result, text_verdicts, image_verdicts)

        self._validate_background(clean, offset, viewport, result, changed_rects)

        result.plan_text_units = plan.text_unit_count
        result.plan_image_pairs = plan.image_pair_count
        result.text_retry_rounds = plan.text_retry_rounds
        result.text_invocations = self.text_verifier.invocations - t0_text
        result.image_invocations = self.image_verifier.invocations - t0_image
        result.text_forwards = self.text_verifier.forwards - t0_text_fwd
        result.image_forwards = self.image_verifier.forwards - t0_image_fwd
        return result

    # -- per-entry collection --------------------------------------------------

    def _collect_entry(
        self,
        entry: ManifestEntry,
        frame_pixels: np.ndarray,
        offset: int,
        viewport: Rect,
        tracked_inputs: dict,
        plan: ValidationPlan,
        deferred: list,
    ) -> None:
        """Queue one entry's unit inputs and its deferred failure emitter.

        Structural (non-CNN) checks resolve immediately during collection;
        their verdicts still emit through ``deferred`` so failures appear
        in manifest-entry order regardless of check kind.
        """
        if entry.kind == "text":
            # Only fully visible cells are judged; half-scrolled glyphs are
            # validated once the viewport settles (paper: everything the
            # user can *see* is checked — a clipped glyph is checked as
            # part of the next frame it is fully visible in).
            visible_cells = [c for c in entry.chars if viewport.contains(c.rect)]
            cell_range = plan.add_cells(
                frame_pixels, visible_cells, offset_x=0, offset_y=offset,
                background=self.vspec.background,
            )
            deferred.append(
                _cell_emitter("text", visible_cells, cell_range, "character ", " mismatch")
            )
        elif entry.kind == "image":
            region = self._observed_region(frame_pixels, entry.rect, offset, viewport)
            if region is None:
                return  # only partially visible; skip until fully shown
            expected = self.vspec.expected_region(entry.rect)
            if region.shape != expected.shape:
                deferred.append(_fixed_failure(entry.kind, entry.rect, "region mismatch"))
                return
            group = plan.add_region(region, expected, self.vspec.background)

            def emit_image(result, _text_verdicts, image_verdicts, entry=entry, group=group):
                if not image_verdicts[group]:
                    result.ok = False
                    result.failures.append(
                        ElementFailure(entry.kind, entry.rect.as_tuple(), "region mismatch")
                    )

            deferred.append(emit_image)
        elif entry.kind == "button":
            # Button chrome is UI structure, not content imagery; the label
            # text has its own text entry in the manifest.
            region = self._observed_region(frame_pixels, entry.rect, offset, viewport)
            if region is None:
                return
            expected = self.vspec.expected_region(entry.rect)
            if not structural_match(region, expected):
                deferred.append(_fixed_failure(entry.kind, entry.rect, "button chrome mismatch"))
        elif entry.kind == "input":
            self._collect_text_input(
                entry, frame_pixels, offset, viewport, tracked_inputs, plan, deferred
            )
        elif entry.kind in ("checkbox", "radio", "select"):
            state = str(tracked_inputs.get(entry.input_name, entry.initial_value))
            if state not in entry.state_appearances:
                deferred.append(
                    _fixed_failure(entry.kind, entry.rect, f"no appearance for state {state!r}")
                )
                return
            region = self._observed_region(frame_pixels, entry.rect, offset, viewport)
            if region is None:
                return
            expected = entry.state_appearances[state]
            if not structural_match(region, expected):
                deferred.append(
                    _fixed_failure(entry.kind, entry.rect, f"does not display state {state!r}")
                )
                return
            if entry.kind == "select":
                # The selected option's text is dynamic content: verify the
                # characters with the text model on top of the chrome match.
                self._collect_select_text(entry, state, frame_pixels, offset, plan, deferred)
        elif entry.kind == "scroll-v":
            self._collect_scrollable(entry, frame_pixels, offset, viewport, plan, deferred)
        else:  # pragma: no cover - manifest kinds are closed
            raise ValueError(f"unknown entry kind {entry.kind!r}")

    def _collect_select_text(
        self,
        entry: ManifestEntry,
        state: str,
        frame_pixels: np.ndarray,
        offset: int,
        plan: ValidationPlan,
        deferred: list,
    ) -> None:
        """Queue the displayed option string of a select box (14px text)."""
        advance = char_advance(14)
        cells = [
            CharCell(entry.rect.x + 6 + i * advance, entry.rect.y + 8, advance, 14, ch)
            for i, ch in enumerate(state)
            if ch != " "
        ]
        cell_range = plan.add_cells(
            frame_pixels, cells, offset_x=0, offset_y=offset, background=252.0
        )
        deferred.append(
            _cell_emitter(
                "select", cells, cell_range, f"{entry.input_name}: option char ", " mismatch"
            )
        )

    def _observed_region(
        self, frame_pixels: np.ndarray, rect: Rect, offset: int, viewport: Rect
    ) -> np.ndarray | None:
        """Crop an element's region from the frame; None unless fully visible."""
        if not viewport.contains(rect):
            return None
        fy = rect.y - offset
        return frame_pixels[fy : fy + rect.h, rect.x : rect.x2]

    def _collect_text_input(
        self,
        entry: ManifestEntry,
        frame_pixels: np.ndarray,
        offset: int,
        viewport: Rect,
        tracked_inputs: dict,
        plan: ValidationPlan,
        deferred: list,
    ) -> None:
        """A free-text input must display exactly the tracked value."""
        if not viewport.contains(entry.rect):
            return
        value = str(tracked_inputs.get(entry.input_name, entry.initial_value))
        cells = input_value_cells(entry, value)
        cell_range = plan.add_cells(
            frame_pixels, cells, offset_x=0, offset_y=offset, background=252.0
        )
        name = entry.input_name
        deferred.append(
            _cell_emitter("input", cells, cell_range, f"{name}: displayed char != tracked ", "")
        )
        # Beyond the value, the field must be empty (no extra content).
        # Plain pixel statistics — resolved at collect time.
        box = entry.rect
        tail_x = box.x + INPUT_PAD_X + len(value) * char_advance(entry.text_size) + 2
        if tail_x < box.x2 - 2:
            fy0 = box.y - offset + 2
            tail = frame_pixels[fy0 : box.y2 - offset - 2, tail_x : box.x2 - 2]
            if tail.size and float(np.mean(tail < 200.0)) > 0.005:
                deferred.append(
                    _fixed_failure(
                        "input", box, f"{name}: unexpected content beyond tracked value"
                    )
                )

    def _collect_scrollable(
        self,
        entry: ManifestEntry,
        frame_pixels: np.ndarray,
        offset: int,
        viewport: Rect,
        plan: ValidationPlan,
        deferred: list,
    ) -> None:
        """Nested-VSPEC validation of an independently scrollable element.

        The nested viewport search is structural (numpy) and resolves at
        collect time; the visible list rows' glyph tiles join the frame
        plan.  Nested tiles carry no alignment-retry hook — the nested
        offset search already aligned the interior raster.
        """
        nested = self.vspec.nested.get(entry.nested_id)
        if nested is None:
            deferred.append(_fixed_failure(entry.kind, entry.rect, "missing nested VSPEC"))
            return
        if not viewport.contains(entry.rect):
            return
        fy = entry.rect.y - offset
        interior = frame_pixels[fy + 1 : fy + entry.rect.h - 1, entry.rect.x + 1 : entry.rect.x2 - 1].copy()
        # List-selection shading is element state, not content: normalize it.
        selection_band = np.abs(interior - DEFAULT_POF.list_selection_intensity) <= 6.0
        interior[selection_band] = 252.0

        expected = nested.expected
        pad_w = expected.shape[1] - interior.shape[1]
        if pad_w < 0:
            deferred.append(
                _fixed_failure(entry.kind, entry.rect, "observed wider than nested spec")
            )
            return
        # Align widths (border crop makes the interior 2px narrower).
        target = self._nested.get(entry.nested_id)
        if target is None:
            target = PageSpectrum(expected[:, 1 : 1 + interior.shape[1]] if pad_w else expected)
            self._nested[entry.nested_id] = target
        match = best_vertical_offset(interior, target)
        if match.score < VIEWPORT_SCORE_FLOOR:
            deferred.append(
                _fixed_failure(
                    entry.kind, entry.rect, f"nested viewport unmatched (score={match.score:.2f})"
                )
            )
            return
        nested_viewport = Rect(0, match.offset, interior.shape[1], interior.shape[0])
        for sub in nested.entries:
            if sub.kind != "text" or not sub.rect.intersects(nested_viewport):
                continue
            cells = [c for c in sub.chars if nested_viewport.contains(c.rect)]
            adjusted = [
                CharCell(c.x - 1, c.y, c.w, c.h, c.char) for c in cells
            ]  # interior crop removed the 1px border column
            # Tiles cut from the offset-matched interior raster get no
            # alignment retry (retry=False), matching their provenance.
            cell_range = plan.add_cells(
                interior,
                adjusted,
                offset_x=0,
                offset_y=match.offset,
                background=252.0,
                retry=False,
            )
            deferred.append(
                _cell_emitter(
                    "scroll-text", adjusted, cell_range, "list row character ", " mismatch"
                )
            )

    def _validate_background(
        self,
        frame_pixels: np.ndarray,
        offset: int,
        viewport: Rect,
        result: DisplayResult,
        changed_rects: list | None = None,
    ) -> None:
        """Regions without UI elements must match the background color.

        ``changed_rects`` (frame coordinates) limits the check to what
        changed since the last validated frame; ``None`` checks the whole
        frame.  Either way the grown entry rectangles are left to their
        entries' own checks, and the off-color fraction is taken over the
        pixels checked — so content painted onto the background of a
        later frame is caught in the frame that shows it.
        """
        if changed_rects is None:
            mask = np.ones(frame_pixels.shape, dtype=bool)
        else:
            mask = np.zeros(frame_pixels.shape, dtype=bool)
            for r in changed_rects:
                mask[r.y : r.y2, r.x : r.x2] = True
        for entry in self.vspec.visible_entries(viewport):
            grown = entry.rect.expanded(8)
            y0 = max(grown.y - offset, 0)
            y1 = min(grown.y2 - offset, frame_pixels.shape[0])
            x0 = max(grown.x, 0)
            x1 = min(grown.x2, frame_pixels.shape[1])
            if y1 > y0 and x1 > x0:
                mask[y0:y1, x0:x1] = False
        if not mask.any():
            return
        deviation = np.abs(frame_pixels[mask] - self.vspec.background)
        bad_fraction = float(np.mean(deviation > 25.0))
        if bad_fraction > 0.002:
            result.ok = False
            result.failures.append(
                ElementFailure(
                    "background",
                    viewport.as_tuple(),
                    f"{bad_fraction * 100:.2f}% of background pixels off-color",
                )
            )


def input_value_cells(entry: ManifestEntry, value: str) -> list:
    """The glyph cells of ``value`` displayed in a free-text input box.

    Drawn from the box's text origin (``INPUT_PAD_X`` in, vertically
    centred), one cell per non-space character that ends inside the box.
    """
    box = entry.rect
    advance = char_advance(entry.text_size)
    origin_x = box.x + INPUT_PAD_X
    origin_y = box.y + (box.h - entry.text_size) // 2
    return [
        CharCell(origin_x + i * advance, origin_y, advance, entry.text_size, ch)
        for i, ch in enumerate(value)
        if ch != " " and origin_x + (i + 1) * advance < box.x2
    ]


def _cell_emitter(kind: str, cells: list, cell_range: slice, prefix: str, suffix: str):
    """A deferred emitter for glyph cells: one failure per mismatched cell,
    its reason ``prefix + repr(char) + suffix``."""

    def emit(result, text_verdicts, _image_verdicts):
        for cell, verdict in zip(cells, text_verdicts[cell_range]):
            if not verdict:
                result.ok = False
                result.failures.append(
                    ElementFailure(kind, cell.rect.as_tuple(), f"{prefix}{cell.char!r}{suffix}")
                )

    return emit


def _fixed_failure(kind: str, rect: Rect, reason: str):
    """A deferred emitter for a failure already decided at collect time.

    Structural checks resolve during collection but still emit through the
    deferred list, so failures keep manifest-entry order next to
    CNN-verdict failures.
    """

    def emit(result, _text_verdicts, _image_verdicts):
        result.ok = False
        result.failures.append(ElementFailure(kind, rect.as_tuple(), reason))

    return emit
