"""Point-of-focus extraction and consistency checks (paper §III-C2, §IV-A).

vWitness locates POFs purely from pixel information: the focus outline
(a mid-gray ring around the focused field), the input caret (a thin dark
vertical bar), and the multi-character selection highlight (a light band
behind text).  Because the untrusted client renders these, an attacker can
forge them — the consistency rules catch forgeries:

1. **Number of instances** — at most one of each POF kind on a frame.
2. **Same-field logic** — outline, highlight and caret must all reside in
   the same input field.
3. **Mutual exclusivity** — caret and selection highlight never coexist.

Carets and highlights only count in input fields, so their bands are
labelled in windows around the fields, with the whole frame as the exact
fallback (:func:`_band_components`).  A focus outline counts anywhere on
the frame, since a forged one anywhere is a violation; a session carries
that search across its frames (:class:`OutlineSearch`), so after its
first frame only the outline band around what changed is relabelled,
with the same result as labelling the whole frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.vision.components import (
    Rect,
    box_rect,
    box_union,
    component_boxes,
    is_hollow,
    label_components,
)
from repro.web.render import DEFAULT_POF, POFStyle

#: Intensity tolerance when matching POF bands (absorbs stack noise).
BAND_TOL = 10.0

#: A focus outline is a hollow rectangle in the outline band, larger than
#: any glyph (fields are tens of pixels tall and wide): the
#: :func:`~repro.vision.components.find_rectangles` parameters.
OUTLINE_MIN_WIDTH, OUTLINE_MIN_HEIGHT = 30, 16
OUTLINE_MAX_FILL, OUTLINE_MIN_BORDER_COVER = 0.5, 0.7


@dataclass
class POFObservation:
    """All POF instances found on one frame (frame coordinates)."""

    outlines: list = field(default_factory=list)
    carets: list = field(default_factory=list)
    highlights: list = field(default_factory=list)

    @property
    def present(self) -> bool:
        return bool(self.outlines or self.carets or self.highlights)


def _band_mask(pixels: np.ndarray, intensity: float, tol: float = BAND_TOL) -> np.ndarray:
    """Pixels within ``tol`` of ``intensity``: ``|p - c| <= tol``.

    Computed as ``c - tol <= p <= c + tol``: two comparisons and no
    temporary float array.  This is bit-identical to
    ``np.abs(p - c) <= tol`` whenever ``c - tol`` and ``c + tol`` are
    exact and ``tol < c / 2``, as for every shipped band (120±10, 30±10,
    205±6).  Rounding is monotone, so inside the band ``fl(p - c)`` stays
    within ``±tol``.  Just outside it, for ``c / 2 <= p <= 2c``, ``p - c``
    is exact (Sterbenz's lemma); farther out it rounds to beyond
    ``±c / 2``, already outside ``±tol``.  NaN fails both forms.
    """
    return (pixels >= intensity - tol) & (pixels <= intensity + tol)


def _bright_neighbours(frame_pixels: np.ndarray, rect: Rect, threshold: float = 150.0) -> bool:
    """True when the columns flanking ``rect`` are bright (background-ish).

    A real caret stands alone against the field background; the vertical
    edge of a dark glyph stroke has ink on one side.  This test is what
    keeps glyph anti-aliasing ramps from masquerading as carets.
    """
    h, w = frame_pixels.shape
    left = frame_pixels[rect.y : rect.y2, max(rect.x - 2, 0) : rect.x]
    right = frame_pixels[rect.y : rect.y2, rect.x2 : min(rect.x2 + 2, w)]
    # A flank clipped away by the frame edge carries no evidence either
    # way: judge on the flanks that exist, so an honest caret within 2px
    # of the frame's left/right edge is not rejected out of hand.
    flanks = [f for f in (left, right) if f.size]
    if not flanks:
        return False
    return all(float(f.mean()) > threshold for f in flanks)


def _search_windows(areas: list, shape: tuple) -> list:
    """Label windows ``(y0, x0, y1, x1)`` for caret and highlight search.

    Each search area grown by 1 px and clipped to the frame; windows that
    overlap are merged into their bounding box until none do, so no pixel
    is labelled twice and two components can share a top-left corner
    only inside one window.
    """
    h, w = shape
    windows = []
    for area in areas:
        box = (max(area.y - 1, 0), max(area.x - 1, 0), min(area.y2 + 1, h), min(area.x2 + 1, w))
        if box[0] >= box[2] or box[1] >= box[3]:
            continue
        while True:
            other = next(
                (o for o in windows
                 if box[0] < o[2] and o[0] < box[2] and box[1] < o[3] and o[1] < box[3]),
                None,
            )
            if other is None:
                break
            windows.remove(other)
            box = (
                min(box[0], other[0]), min(box[1], other[1]),
                max(box[2], other[2]), max(box[3], other[3]),
            )
        windows.append(box)
    return windows


def _may_wrap(frame_pixels: np.ndarray, intensity: float, tol: float, areas: list) -> bool:
    """Whether a band component might have its bounding box meet a
    search area while none of its pixels lies in the area.

    Such a component (a ring or an L around the area) has a pixel in the
    area's columns above or below it and one in the area's rows beside
    it, because a connected blob's row and column projections are
    intervals.  A path between the two enters the area's rows through its
    top or bottom row, outside its columns, and its columns through its
    left or right column, outside its rows, so the band must have pixels
    on both of those pairs of lines.  Such a component need not enter the
    area's window, so labelling windows alone could miss it.
    """
    h, w = frame_pixels.shape
    for area in areas:
        y0, x0, y1, x1 = max(area.y, 0), max(area.x, 0), min(area.y2, h), min(area.x2, w)
        if y0 >= y1 or x0 >= x1:
            continue
        rows = frame_pixels[[y0, y1 - 1]]
        if not (_band_mask(rows[:, :x0], intensity, tol).any()
                or _band_mask(rows[:, x1:], intensity, tol).any()):
            continue
        cols = frame_pixels[:, [x0, x1 - 1]]
        if (_band_mask(cols[:y0], intensity, tol).any()
                or _band_mask(cols[y1:], intensity, tol).any()):
            return True
    return False


def _label_windows(frame_pixels, intensity, tol, areas, fits, windows) -> list | None:
    """The :func:`_band_components` result from labelling ``windows``, or
    None when a component meeting a search area touches a window edge
    that is not a frame edge (it may run on outside the window).

    Each window is cropped to its band pixels' bounding box before
    labelling; the edge test still uses the window's edges, since a crop
    edge inside the window has no band pixel beyond it.
    """
    h, w = frame_pixels.shape
    found = []
    for wy0, wx0, wy1, wx1 in windows:
        mask = _band_mask(frame_pixels[wy0:wy1, wx0:wx1], intensity, tol)
        rows = np.flatnonzero(mask.any(axis=1))
        if not rows.size:
            continue
        cols = np.flatnonzero(mask.any(axis=0))
        cy, cx = int(rows[0]), int(cols[0])
        mask = mask[cy : rows[-1] + 1, cx : cols[-1] + 1]
        oy, ox = wy0 + cy, wx0 + cx
        for y0, x0, y1, x1 in component_boxes(mask):
            top, left, bottom, right = y0 + oy, x0 + ox, y1 + oy, x1 + ox
            if areas is not None and not any(
                top < a.y2 and a.y < bottom and left < a.x2 and a.x < right for a in areas
            ):
                continue
            if top == wy0 > 0 or left == wx0 > 0 or bottom == wy1 < h or right == wx1 < w:
                return None
            if fits(right - left, bottom - top):
                found.append(((top, left, bottom, right), mask[y0:y1, x0:x1]))
    found.sort(key=lambda item: item[0][:2])
    return [(box_rect(box), sub) for box, sub in found]


def _band_components(
    frame_pixels: np.ndarray, intensity: float, tol: float, areas: list | None, fits
) -> list:
    """Components of one intensity band that ``fits(w, h)`` and whose
    bounding box intersects a search area (any box when ``areas`` is
    None), in reading order, each as ``(Rect, its box's slice of the band
    mask)``.

    With search areas, only the windows around them are labelled.  A
    component found inside a window is the frame's whole component unless
    it touches a window edge that is not a frame edge; one that does, and
    meets a search area, sends the band to full-frame labelling, and so
    does a possible component that meets an area without entering it
    (:func:`_may_wrap`).  Every other component that meets an area has a
    pixel in it, so its window holds it whole.  The result equals the
    full-frame labelling's, order included: label order within a window
    is the frame's raster order, and windows are disjoint.
    """
    h, w = frame_pixels.shape
    whole = [(0, 0, h, w)]
    if areas is None or _may_wrap(frame_pixels, intensity, tol, areas):
        windows = whole
    else:
        windows = _search_windows(areas, (h, w))
    found = _label_windows(frame_pixels, intensity, tol, areas, fits, windows)
    if found is None:
        found = _label_windows(frame_pixels, intensity, tol, areas, fits, whole)
    return found


class OutlineSearch:
    """The focus-outline search of one session, carried across its frames.

    Outlines are the outline-band components that pass
    :func:`~repro.vision.components.find_rectangles`' size and hollowness
    tests, anywhere on the frame.  The search keeps every band component
    of the last frame it searched (Q), with its verdict, and is told the
    exact change boxes of the samples since (:meth:`note_change`).  With
    G the union of those boxes grown by 1 px, it labels only the window
    bounding G and the boxes of the kept components that meet G, keeps the
    window's components whose box meets G and carries every other
    component, verdict included.  This is exact, with no fallback:

    * a component whose box misses G has no changed pixel and no changed
      neighbour, so it is a component of the new frame with the same box
      and the same box contents, hence the same verdict;
    * a component of the new frame whose box meets G lies inside the
      window: a pixel of it outside the window is unchanged, so it
      belonged to a component of Q whose box meets G (else that component
      is carried whole and is this one, whose box would miss G), and
      that box lies inside the window.

    Outlines come back in ``find_rectangles``' order: by box corner, ties
    in label order (the raster order of each component's first pixel).
    A search with nothing carried labels the whole frame.
    """

    def __init__(self) -> None:
        self._key: tuple | None = None  # (frame shape, band intensity) of Q
        self._boxes = np.empty((0, 4), dtype=np.intp)
        #: Sort key ``(y0, x0, first pixel's x)`` of each outline among them.
        self._outlines: dict = {}
        self._changed: tuple | None = None

    def note_change(self, box: tuple | None) -> None:
        """Add one sample's exact change box ``(y0, x0, y1, x1)`` (None: no change)."""
        if box is not None:
            self._changed = box if self._changed is None else box_union(self._changed, box)

    def outlines(self, frame_pixels: np.ndarray, intensity: float) -> list:
        """The focus outlines (band ``intensity``) of ``frame_pixels``.

        Exact only if every sample since the last search had its change
        box noted; a new frame shape or band labels the whole frame.
        """
        h, w = frame_pixels.shape
        key = (frame_pixels.shape, intensity)
        changed = self._changed
        if key != self._key:
            boxes, outlines = self._label((0, 0, h, w), frame_pixels, intensity, None)
        elif changed is None:
            boxes, outlines = self._boxes, self._outlines
        else:
            g = (max(changed[0] - 1, 0), max(changed[1] - 1, 0),
                 min(changed[2] + 1, h), min(changed[3] + 1, w))
            boxes = self._boxes
            meets = _meets(boxes, g)
            hit = boxes[meets]
            window = g
            if hit.size:
                window = box_union(g, (*hit[:, :2].min(axis=0), *hit[:, 2:].max(axis=0)))
            found, outlines = self._label(window, frame_pixels, intensity, g)
            kept = ~meets
            rank = np.cumsum(kept) - 1  # a carried component's index after ``found``
            outlines.update(
                (len(found) + int(rank[j]), sort_key)
                for j, sort_key in self._outlines.items() if kept[j]
            )
            boxes = np.concatenate([found, boxes[kept]])
        # Only a completed search replaces the carried state.
        self._key, self._boxes, self._outlines, self._changed = key, boxes, outlines, None
        return [
            box_rect(boxes[i]) for i in sorted(outlines, key=outlines.__getitem__)
        ]

    @staticmethod
    def _label(window, frame_pixels, intensity, g) -> tuple:
        """Band components labelled in ``window`` whose box meets ``g``
        (all of them when None), as frame-coordinate boxes, and the sort
        key of each outline among them by index."""
        wy0, wx0, wy1, wx1 = window
        mask = _band_mask(frame_pixels[wy0:wy1, wx0:wx1], intensity)
        labels, found = label_components(mask)
        boxes = np.array(found, dtype=np.intp).reshape(-1, 4) + (wy0, wx0, wy0, wx0)
        keep = np.arange(len(boxes)) if g is None else np.flatnonzero(_meets(boxes, g))
        outlines = {}
        for i, label in enumerate(keep):
            y0, x0, y1, x1 = found[label]
            if x1 - x0 < OUTLINE_MIN_WIDTH or y1 - y0 < OUTLINE_MIN_HEIGHT:
                continue
            if is_hollow(mask[y0:y1, x0:x1], OUTLINE_MAX_FILL, OUTLINE_MIN_BORDER_COVER):
                first = int(np.argmax(labels[y0, x0:x1] == label + 1))
                outlines[i] = (y0 + wy0, x0 + wx0, x0 + wx0 + first)
        return boxes[keep], outlines


def _meets(boxes: np.ndarray, g: tuple) -> np.ndarray:
    """Which ``(y0, x0, y1, x1)`` rows of ``boxes`` intersect box ``g``."""
    return (
        (boxes[:, 0] < g[2]) & (g[0] < boxes[:, 2]) & (boxes[:, 1] < g[3]) & (g[1] < boxes[:, 3])
    )


def extract_pofs(
    frame_pixels: np.ndarray,
    style: POFStyle = DEFAULT_POF,
    input_rects: list | None = None,
    outline_search: OutlineSearch | None = None,
) -> POFObservation:
    """Locate focus outlines, carets and selection highlights in a frame.

    ``input_rects`` (frame coordinates) restricts caret/highlight search to
    expected input fields — vWitness only interprets POFs in fields, and a
    cue drawn anywhere else is simply not a POF (forged ones inside fields
    are handled by the consistency rules).  A caret or highlight counts
    when its bounding box intersects a field grown by 4 px; only the
    windows around those search areas are labelled
    (:func:`_band_components`), with the same result as labelling the
    whole frame.  The focus outline is searched on the whole frame: a
    forged outline anywhere is counted against the consistency rules.
    ``outline_search`` carries that search across a session's frames
    (:class:`OutlineSearch`), so it labels only around what changed;
    without one, the whole frame is labelled.
    """
    obs = POFObservation()
    search = OutlineSearch() if outline_search is None else outline_search
    obs.outlines = search.outlines(frame_pixels, style.outline_intensity)

    areas = None if input_rects is None else [f.expanded(4) for f in input_rects]

    # Selection highlight first: a solid light band big enough to back
    # at least one character.
    for rect, sub in _band_components(
        frame_pixels, style.highlight_intensity, 6.0, areas, lambda w, h: w >= 6 and h >= 8
    ):
        if sub.mean() > 0.5:
            obs.highlights.append(rect)

    # Caret: a thin, tall, nearly solid vertical bar in the caret band,
    # free-standing against the bright field background.  Candidates
    # inside a selection highlight are text strokes over the highlight
    # (thin glyph stems dim to caret-band intensities there), not carets —
    # browsers hide the caret while a selection is showing.  The height
    # floor is what keeps straight glyph stems ('l', '1', '|') out: on
    # some stacks their ink lands in the caret band and their flanks are
    # bright inter-glyph gaps, but they never reach caret height.
    max_width = style.caret_width + 2
    for rect, sub in _band_components(
        frame_pixels, style.caret_intensity, BAND_TOL, areas,
        lambda w, h: w <= max_width and h >= style.caret_min_height,
    ):
        if any(h.expanded(2).intersects(rect) for h in obs.highlights):
            continue
        if sub.mean() > 0.85 and _bright_neighbours(frame_pixels, rect, threshold=225.0):
            obs.carets.append(rect)

    return obs


def check_pof_consistency(obs: POFObservation, input_rects: list) -> list:
    """Apply the three consistency rules; returns violation strings.

    ``input_rects`` are the frame-coordinate rectangles of the VSPEC's
    input elements — every POF must lie within some expected input field
    ("observed input elements must fall in the bounding rectangle of
    expected input elements").
    """
    violations = []

    if len(obs.outlines) > 1:
        violations.append(f"{len(obs.outlines)} focus outlines present (max 1)")
    if len(obs.carets) > 1:
        violations.append(f"{len(obs.carets)} carets present (max 1)")
    if len(obs.highlights) > 1:
        violations.append(f"{len(obs.highlights)} selection highlights present (max 1)")

    if obs.carets and obs.highlights:
        violations.append("caret and selection highlight present simultaneously")

    def owner_of_outline(rect: Rect) -> Rect | None:
        # A focus outline wraps the whole focusable element (field plus
        # label), so ownership is by intersection — and an outline that
        # touches more than one declared field is itself suspicious.
        owners = [f for f in input_rects if f.expanded(8).intersects(rect)]
        return owners[0] if len(owners) == 1 else None

    def owner_of_inner(rect: Rect) -> Rect | None:
        # Carets and highlights live *inside* the field.
        for input_rect in input_rects:
            if input_rect.expanded(6).contains(rect):
                return input_rect
        return None

    fields = set()
    for rect in obs.outlines:
        owner = owner_of_outline(rect)
        if owner is None:
            violations.append(
                f"outline at {rect.as_tuple()} does not wrap exactly one expected input field"
            )
        else:
            fields.add(owner.as_tuple())
    for kind, rects in (("caret", obs.carets), ("highlight", obs.highlights)):
        for rect in rects:
            owner = owner_of_inner(rect)
            if owner is None:
                violations.append(f"{kind} at {rect.as_tuple()} outside all expected input fields")
            else:
                fields.add(owner.as_tuple())
    if len(fields) > 1:
        violations.append(f"POFs span {len(fields)} different fields (same-field rule)")

    return violations


def mask_pofs(frame_pixels: np.ndarray, obs: POFObservation, style: POFStyle = DEFAULT_POF, field_background: float = 252.0, page_background: float = 255.0) -> np.ndarray:
    """Remove POF pixels so content verification sees clean element pixels.

    vWitness knows exactly where the POFs are (it just extracted them), so
    it can subtract them before invoking the CNN verifiers: outline pixels
    revert to the page background, caret and highlight pixels to the field
    background.
    """
    out = frame_pixels.copy()
    for rect in obs.outlines:
        # Only the ring itself is POF pixels: wipe the border band of the
        # bounding box, not its interior — element content inside the
        # focused region (e.g. radio option labels) may legitimately have
        # pixels in the outline intensity band (glyph anti-aliasing).
        margin = style.outline_thickness + 1
        region = out[rect.y : rect.y2, rect.x : rect.x2]
        band = _band_mask(region, style.outline_intensity)
        ring = np.ones_like(band)
        if rect.h > 2 * margin and rect.w > 2 * margin:
            ring[margin:-margin, margin:-margin] = False
        region[band & ring] = page_background
    for rect in obs.carets:
        out[rect.y : rect.y2, rect.x : rect.x2] = field_background
    for rect in obs.highlights:
        region = out[rect.y : rect.y2, rect.x : rect.x2]
        band = _band_mask(region, style.highlight_intensity, tol=6.0)
        region[band] = field_background
    return out
