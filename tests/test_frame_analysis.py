"""Cropped frame analysis equals full-frame analysis, bit for bit.

``changed_regions`` dilates and labels only the grown bounding box of the
change, ``extract_pofs`` labels carets and highlights only in windows
around the input fields, and ``_band_mask`` compares against the band's
edges instead of subtracting.  Across frames, ``DifferentialDetector``
quantizes and differences only what changed since the last full diff,
and ``OutlineSearch`` relabels the outline band only around what changed
since the last search.  The oracles below are the full-frame
implementations; every rewrite must return exactly what they return,
including in the cases the crop is built around: changes at the frame
edges, components crossing a window cut, merged windows, components
that wrap around a search area without entering it, and changes the
detector does not report (below its threshold, or below one uint8 step)
that still move a pixel across a band's edge.
"""

import numpy as np
import pytest

from repro.core import pof as pof_module
from repro.core.caches import DifferentialDetector
from repro.core.pof import (
    BAND_TOL,
    OutlineSearch,
    _band_mask,
    check_pof_consistency,
    extract_pofs,
)
from repro.vision.components import Rect, connected_components
from repro.vision.diff import changed_regions
from repro.vision.hashing import region_digest
from repro.vision.ops import dilate
from repro.web.render import DEFAULT_POF

#: Every POF band of the default style: (intensity, tolerance).
BANDS = (
    (DEFAULT_POF.outline_intensity, BAND_TOL),
    (DEFAULT_POF.caret_intensity, BAND_TOL),
    (DEFAULT_POF.highlight_intensity, 6.0),
)


def oracle_band(pixels, intensity, tol=BAND_TOL):
    return np.abs(pixels - intensity) <= tol


def oracle_changed_regions(frame_a, frame_b, threshold=4.0, merge_radius=3, min_pixels=1):
    """Whole-frame differencing: ``(rect, max_delta, changed_pixels)``."""
    delta = np.abs(frame_a - frame_b)
    mask = delta > threshold
    if not mask.any():
        return []
    if merge_radius > 0:
        mask = dilate(mask, merge_radius)
    regions = []
    for rect in connected_components(mask):
        sub_delta = delta[rect.y : rect.y2, rect.x : rect.x2]
        sub_mask = mask[rect.y : rect.y2, rect.x : rect.x2]
        changed = int(np.count_nonzero(sub_mask & (sub_delta > threshold)))
        if changed >= min_pixels:
            regions.append((rect, float(sub_delta.max()), changed))
    return regions


def regions_of(frame_a, frame_b, **kwargs):
    return [
        (d.rect, d.max_delta, d.changed_pixels)
        for d in changed_regions(frame_a, frame_b, **kwargs)
    ]


def oracle_extract_pofs(frame, style=DEFAULT_POF, input_rects=None):
    """Whole-frame labelling of every band: ``(outlines, carets, highlights)``."""

    def in_search_area(rect):
        return input_rects is None or any(f.expanded(4).intersects(rect) for f in input_rects)

    def sub(mask, rect):
        return mask[rect.y : rect.y2, rect.x : rect.x2]

    outline_mask = oracle_band(frame, style.outline_intensity)
    outlines = []
    for rect in connected_components(outline_mask):
        box = sub(outline_mask, rect)
        if rect.w < 30 or rect.h < 16 or box.mean() > 0.5:
            continue
        border = np.concatenate([box[0, :], box[-1, :], box[:, 0], box[:, -1]])
        if border.mean() >= 0.7:
            outlines.append(rect)
    highlight_mask = oracle_band(frame, style.highlight_intensity, 6.0)
    highlights = [
        rect
        for rect in connected_components(highlight_mask)
        if rect.w >= 6 and rect.h >= 8 and in_search_area(rect)
        and sub(highlight_mask, rect).mean() > 0.5
    ]
    caret_mask = oracle_band(frame, style.caret_intensity)
    carets = []
    for rect in connected_components(caret_mask):
        if rect.w > style.caret_width + 2 or rect.h < style.caret_min_height:
            continue
        if not in_search_area(rect) or any(h.expanded(2).intersects(rect) for h in highlights):
            continue
        if sub(caret_mask, rect).mean() > 0.85 and pof_module._bright_neighbours(
            frame, rect, threshold=225.0
        ):
            carets.append(rect)
    return outlines, carets, highlights


class OracleDetector:
    """Whole-frame differential detection: a digest of the whole frame
    decides "identical", and the whole frame is differenced."""

    def __init__(self, threshold=4.0, merge_radius=4):
        self.threshold = threshold
        self.merge_radius = merge_radius
        self.reference = None
        self.digest = None

    def changed(self, frame):
        digest = region_digest(frame)
        if self.reference is not None and digest == self.digest:
            return []
        if self.reference is None or self.reference.shape != frame.shape:
            self.reference = frame.copy()
            self.digest = digest
            return None
        regions = [
            rect
            for rect, _delta, _count in oracle_changed_regions(
                self.reference, frame, threshold=self.threshold, merge_radius=self.merge_radius
            )
        ]
        for r in regions:
            self.reference[r.y : r.y2, r.x : r.x2] = frame[r.y : r.y2, r.x : r.x2]
        self.digest = digest
        return regions


def exact_change_box(previous, frame):
    """Box ``(y0, x0, y1, x1)`` of the pixels where ``frame`` differs from
    ``previous`` (the whole frame when there is none comparable), or None."""
    if previous is None or previous.shape != frame.shape:
        return (0, 0, *frame.shape)
    ys, xs = np.nonzero(previous != frame)
    if not ys.size:
        return None
    return (int(ys.min()), int(xs.min()), int(ys.max()) + 1, int(xs.max()) + 1)


def oracle_outlines(frame):
    return oracle_extract_pofs(frame)[0]


def observed(frame, input_rects):
    obs = extract_pofs(frame, input_rects=input_rects)
    return obs.outlines, obs.carets, obs.highlights


def paint(frame, rect, value):
    frame[max(rect.y, 0) : max(rect.y2, 0), max(rect.x, 0) : max(rect.x2, 0)] = value


def draw_field(frame, field):
    """An input field: border 90, interior 252."""
    paint(frame, field, DEFAULT_POF.border_intensity)
    paint(frame, field.expanded(-1), 252.0)


def field_frame(fields, height=120, width=160):
    """White page with input fields."""
    frame = np.full((height, width), 255.0)
    for f in fields:
        draw_field(frame, f)
    return frame


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the bands that fell back to full-frame labelling."""
    seen = {"full": 0}
    label = pof_module._label_windows

    def counted(frame, intensity, tol, areas, fits, windows):
        if windows == [(0, 0, *frame.shape)]:
            seen["full"] += 1
        return label(frame, intensity, tol, areas, fits, windows)

    monkeypatch.setattr(pof_module, "_label_windows", counted)
    return seen


class TestBandMask:
    @pytest.mark.parametrize("intensity,tol", BANDS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_edges_and_neighbours_match_subtraction(self, intensity, tol, dtype):
        values = [0.0, 255.0, intensity, intensity / 2, intensity * 2, np.nan, np.inf, -np.inf]
        for edge in (intensity - tol, intensity + tol):
            edge = dtype(edge)
            values += [edge, np.nextafter(edge, dtype(-np.inf)), np.nextafter(edge, dtype(np.inf))]
        rng = np.random.default_rng(0)
        values += list(rng.uniform(intensity - 2 * tol, intensity + 2 * tol, 500))
        pixels = np.array(values, dtype=dtype).reshape(1, -1)
        got = _band_mask(pixels, intensity, tol)
        assert np.array_equal(got, oracle_band(pixels, intensity, tol))
        edges = pixels[0, 8:14]
        assert got[0, 8:14].tolist() == [True, False, True, True, True, False], edges


class TestChangedRegions:
    SHAPE = (48, 64)

    def _pair(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 255, self.SHAPE)
        # Sub-threshold jitter everywhere: present in the delta, never a change.
        b = a + rng.uniform(-3.9, 3.9, self.SHAPE)
        return rng, a, b

    @pytest.mark.parametrize("merge_radius", [0, 1, 3, 4])
    def test_changes_at_every_frame_edge(self, merge_radius):
        h, w = self.SHAPE
        patches = [
            (slice(0, 2), slice(20, 30)),       # top edge
            (slice(h - 1, h), slice(5, 9)),     # bottom edge
            (slice(10, 20), slice(0, 1)),       # left edge
            (slice(30, 33), slice(w - 3, w)),   # right edge
            (slice(0, 1), slice(0, 1)),         # corner
            (slice(h - 2, h), slice(w - 2, w)), # opposite corner
        ]
        for i, patch in enumerate(patches):
            _rng, a, b = self._pair(i)
            b[patch] += 40.0
            assert regions_of(a, b, merge_radius=merge_radius) == oracle_changed_regions(
                a, b, merge_radius=merge_radius
            ), patch

    @pytest.mark.parametrize("merge_radius", [0, 3, 4])
    def test_two_distant_changes(self, merge_radius):
        _rng, a, b = self._pair(7)
        b[2:5, 3:6] -= 30.0
        b[40:44, 55:60] += 30.0
        got = regions_of(a, b, merge_radius=merge_radius)
        assert got == oracle_changed_regions(a, b, merge_radius=merge_radius)
        assert len(got) == 2

    @pytest.mark.parametrize("seed", range(40))
    def test_random_changes(self, seed):
        rng, a, b = self._pair(100 + seed)
        for _ in range(rng.integers(0, 6)):
            y, x = rng.integers(0, self.SHAPE[0]), rng.integers(0, self.SHAPE[1])
            hh, ww = rng.integers(1, 8, 2)
            b[y : y + hh, x : x + ww] += rng.choice([-1, 1]) * rng.uniform(4.5, 60)
        kwargs = dict(
            merge_radius=int(rng.integers(0, 6)),
            min_pixels=int(rng.integers(1, 4)),
            threshold=float(rng.choice([4.0, 10.0])),
        )
        assert regions_of(a, b, **kwargs) == oracle_changed_regions(a, b, **kwargs)

    def test_identical_and_whole_frame_changes(self):
        _rng, a, b = self._pair(3)
        assert regions_of(a, b) == [] == oracle_changed_regions(a, b)
        assert regions_of(a, 255.0 - a) == oracle_changed_regions(a, 255.0 - a)


class TestExtractPofs:
    FIELDS = [Rect(20, 20, 100, 24), Rect(20, 70, 100, 24)]

    def _assert_parity(self, frame, fields):
        got = observed(frame, fields)
        assert got == oracle_extract_pofs(frame, input_rects=fields)
        return got

    def test_no_input_rects_labels_the_whole_frame(self):
        frame = field_frame(self.FIELDS)
        frame[25:41, 140:142] = DEFAULT_POF.caret_intensity   # outside every field
        frame[75:85, 130:150] = DEFAULT_POF.highlight_intensity
        outlines, carets, highlights = self._assert_parity(frame, None)
        assert carets == [Rect(140, 25, 2, 16)]
        assert highlights == [Rect(130, 75, 20, 10)]

    def test_honest_caret_and_highlight_are_windowed(self, fallbacks):
        frame = field_frame(self.FIELDS)
        frame[23:41, 60:62] = DEFAULT_POF.caret_intensity
        frame[73:91, 30:60] = DEFAULT_POF.highlight_intensity
        _o, carets, highlights = self._assert_parity(frame, self.FIELDS)
        assert carets and highlights
        assert fallbacks["full"] == 0

    def test_component_crossing_a_window_cut_falls_back(self, fallbacks):
        # A caret-band bar from inside the first field down past its
        # window: labelled in the window it would look caret-sized.
        frame = field_frame(self.FIELDS)
        frame[24:60, 100:102] = DEFAULT_POF.caret_intensity
        _o, carets, _h = self._assert_parity(frame, self.FIELDS)
        assert fallbacks["full"] >= 1
        assert carets == [Rect(100, 24, 2, 36)]

    def test_forged_caret_straddling_a_window_edge(self, fallbacks):
        # Caret-sized overall, but only part of it inside the window: the
        # full-frame labelling sees one 2x18 bar meeting the search area.
        field = self.FIELDS[0]
        frame = field_frame(self.FIELDS)
        top = field.y2 + 4 - 6
        frame[top : top + 18, 50:52] = DEFAULT_POF.caret_intensity
        _o, carets, _h = self._assert_parity(frame, self.FIELDS)
        assert carets == [Rect(50, top, 2, 18)]
        assert fallbacks["full"] >= 1

    def test_overlapping_windows_are_merged(self, fallbacks):
        fields = [Rect(20, 20, 100, 24), Rect(20, 50, 100, 24), Rect(90, 80, 50, 24)]
        frame = field_frame(fields)
        # A caret in the gap both search areas cover, and one per field.
        frame[40:58, 70:72] = DEFAULT_POF.caret_intensity
        frame[55:71, 30:32] = DEFAULT_POF.caret_intensity
        frame[83:101, 120:122] = DEFAULT_POF.caret_intensity
        windows = pof_module._search_windows([f.expanded(4) for f in fields], frame.shape)
        assert len(windows) == 1
        _o, carets, _h = self._assert_parity(frame, fields)
        assert len(carets) == 3

    def test_caret_between_side_by_side_fields_counts_once(self, fallbacks):
        # The two windows overlap by four columns and the caret lies
        # inside both without touching either's edge.
        fields = [Rect(20, 20, 40, 30), Rect(66, 20, 40, 30)]
        frame = field_frame(fields)
        frame[25:45, 62:64] = DEFAULT_POF.caret_intensity
        _o, carets, _h = self._assert_parity(frame, fields)
        assert carets == [Rect(62, 25, 2, 20)]
        assert fallbacks["full"] == 0

    def test_reading_order_follows_box_corners(self):
        # The second highlight's first pixel (raster order) comes before
        # the first's, but its box starts further left.
        field = Rect(20, 20, 100, 40)
        frame = field_frame([field])
        frame[25:33, 42:48] = DEFAULT_POF.highlight_intensity
        frame[25:34, 50:60] = DEFAULT_POF.highlight_intensity
        frame[34:41, 30:60] = DEFAULT_POF.highlight_intensity
        _o, _c, highlights = self._assert_parity(frame, [field])
        assert highlights == [Rect(30, 25, 30, 16), Rect(42, 25, 6, 8)]

    def test_ring_around_a_field_is_seen(self, fallbacks):
        # A thick highlight-band frame whose bounding box contains the
        # search area while none of its pixels enters the window.
        field = Rect(50, 50, 40, 20)
        frame = np.full((140, 160), 255.0)
        ring = field.expanded(20)
        paint(frame, ring, DEFAULT_POF.highlight_intensity)
        paint(frame, field.expanded(6), 255.0)
        draw_field(frame, field)
        _o, _c, highlights = self._assert_parity(frame, [field])
        assert highlights == [ring]
        assert fallbacks["full"] >= 1
        violations = check_pof_consistency(extract_pofs(frame, input_rects=[field]), [field])
        assert any("outside all expected input fields" in v for v in violations)

    def test_bar_around_a_corner_is_seen(self, fallbacks):
        # Caret-sized and solid; its box meets the search area's corner
        # pixel, but none of its pixels enters the area's window.
        field = Rect(50, 50, 40, 20)
        area = field.expanded(4)
        frame = field_frame([field], height=140, width=160)
        frame[area.y - 20 : area.y - 1, area.x - 3 : area.x + 1] = DEFAULT_POF.caret_intensity
        frame[area.y - 1 : area.y + 1, area.x - 3 : area.x - 1] = DEFAULT_POF.caret_intensity
        _o, carets, _h = self._assert_parity(frame, [field])
        assert carets == [Rect(area.x - 3, area.y - 20, 4, 21)]
        assert fallbacks["full"] >= 1

    def test_forged_outline_far_from_every_field_is_reported(self):
        frame = field_frame(self.FIELDS, height=200, width=320)
        for f in (self.FIELDS[0], Rect(200, 140, 100, 40)):
            paint(frame, f.expanded(4), DEFAULT_POF.outline_intensity)
            paint(frame, f.expanded(2), 255.0)
            draw_field(frame, f)
        outlines, _c, _h = self._assert_parity(frame, self.FIELDS)
        assert len(outlines) == 2
        violations = check_pof_consistency(extract_pofs(frame, input_rects=self.FIELDS), self.FIELDS)
        assert any("focus outlines" in v for v in violations)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_cues(self, seed):
        rng = np.random.default_rng(seed)
        h, w = 90, 120
        fields = [
            Rect(int(rng.integers(-10, w - 10)), int(rng.integers(-10, h - 10)),
                 int(rng.integers(8, 60)), int(rng.integers(8, 30)))
            for _ in range(rng.integers(0, 4))
        ]
        frame = np.full((h, w), 255.0)
        intensities = [b[0] for b in BANDS] + [252.0, 90.0, 0.0]
        for _ in range(rng.integers(5, 40)):
            y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
            bh, bw = int(rng.integers(1, 25)), int(rng.integers(1, 8))
            if rng.random() < 0.5:
                bh, bw = bw, bh
            frame[y : y + bh, x : x + bw] = rng.choice(intensities) + rng.uniform(-5, 5)
        assert observed(frame, fields) == oracle_extract_pofs(frame, input_rects=fields)


OUTLINE = DEFAULT_POF.outline_intensity


def draw_ring(frame, rect, value=OUTLINE):
    """A 1 px hollow rectangle (clipped to the frame)."""
    h, w = frame.shape
    y0, x0, y1, x1 = max(rect.y, 0), max(rect.x, 0), min(rect.y2, h), min(rect.x2, w)
    for y in (rect.y, rect.y2 - 1):
        if 0 <= y < h:
            frame[y, x0:x1] = value
    for x in (rect.x, rect.x2 - 1):
        if 0 <= x < w:
            frame[y0:y1, x] = value


class Witnessed:
    """A detector and an outline search fed as a session feeds them, each
    checked against its whole-frame oracle on every frame it sees."""

    def __init__(self):
        self.detector = DifferentialDetector()
        self.oracle = OracleDetector()
        self.search = OutlineSearch()
        self.previous = None

    def sample(self, frame, search=True):
        regions = self.detector.changed(frame)
        assert regions == self.oracle.changed(frame)
        assert self.detector.change_box == exact_change_box(self.previous, frame)
        self.previous = frame.copy()
        self.search.note_change(self.detector.change_box)
        if not search:
            return regions, None
        outlines = self.search.outlines(frame, OUTLINE)
        assert outlines == oracle_outlines(frame)
        return regions, outlines


def random_edit(rng, frame):
    """One random edit, in place; may return a frame of another height."""
    h, w = frame.shape
    y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
    hh, ww = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    region = frame[y : y + hh, x : x + ww]
    kind = rng.choice(
        ["ring", "patch", "cut", "bridge", "drift", "subquantum", "edge", "invert",
         "repeat", "height"],
        p=[0.12, 0.14, 0.12, 0.12, 0.1, 0.1, 0.1, 0.07, 0.1, 0.03],
    )
    if kind == "ring":
        rect = Rect(x - 10, y - 5, int(rng.integers(30, 70)), int(rng.integers(16, 40)))
        draw_ring(frame, rect, OUTLINE + rng.uniform(-9, 9))
    elif kind == "patch":
        region[...] = rng.choice([0.0, 90.0, 252.0, 255.0, OUTLINE, OUTLINE - 11, OUTLINE + 11])
    elif kind == "cut":
        ys, xs = np.nonzero(_band_mask(frame, OUTLINE))
        for i in rng.integers(0, ys.size, min(ys.size, 2)):
            frame[ys[i], xs[i]] = 255.0
    elif kind == "bridge":
        if rng.random() < 0.5:
            frame[y, x : x + int(rng.integers(2, 30))] = OUTLINE
        else:
            frame[y : y + int(rng.integers(2, 30)), x] = OUTLINE
    elif kind == "drift":
        region += rng.uniform(-3.9, 3.9)
    elif kind == "subquantum":
        region[...] = np.rint(region) + rng.uniform(-0.45, 0.45, region.shape)
    elif kind == "edge":
        edge = OUTLINE + rng.choice([-1, 1]) * BAND_TOL
        region[...] = edge + rng.choice([-0.4, -0.1, 0.1, 0.4], region.shape)
    elif kind == "invert":
        region[...] = 255.0 - region
    elif kind == "height":
        grown = np.full((h + int(rng.choice([-7, 9])), w), 255.0)
        rows = min(h, grown.shape[0])
        grown[:rows] = frame[:rows]
        return grown
    return frame


def page_frame(rng, height=96, width=128):
    """White page with fields, text-ish strokes and outline-band rings."""
    frame = np.full((height, width), 255.0)
    for _ in range(int(rng.integers(2, 6))):
        y, x = int(rng.integers(0, height)), int(rng.integers(0, width))
        draw_field(frame, Rect(x, y, int(rng.integers(20, 60)), int(rng.integers(10, 24))))
    for _ in range(int(rng.integers(10, 40))):
        y, x = int(rng.integers(0, height)), int(rng.integers(0, width))
        frame[y : y + int(rng.integers(1, 9)), x : x + int(rng.integers(1, 4))] = rng.choice(
            [0.0, 60.0, OUTLINE, OUTLINE + 4]
        )
    for _ in range(int(rng.integers(1, 4))):
        y, x = int(rng.integers(-10, height)), int(rng.integers(-10, width))
        draw_ring(frame, Rect(x, y, int(rng.integers(30, 80)), int(rng.integers(16, 40))))
    return frame


class TestCarriedAnalysis:
    """The detector's confined diff and the carried outline search, frame
    after frame, against whole-frame oracles."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_sequences(self, seed):
        rng = np.random.default_rng(1000 + seed)
        frame = page_frame(rng)
        witnessed = Witnessed()
        witnessed.sample(frame)
        for _ in range(40):
            frame = frame.copy()
            for _ in range(int(rng.integers(0, 3))):
                frame = random_edit(rng, frame)
            # Skipped and viewport-failed frames run no POF extraction.
            witnessed.sample(frame, search=rng.random() < 0.7)

    def test_edit_bridging_two_components(self):
        # Gaps halfway down both sides leave two 60x12 arches, too short
        # to be outlines; bridging one gap merges them into one outline.
        ring = Rect(20, 20, 60, 24)
        frame = np.full((80, 120), 255.0)
        draw_ring(frame, ring)
        frame[32, ring.x] = 255.0
        frame[32, ring.x2 - 1] = 255.0
        witnessed = Witnessed()
        assert witnessed.sample(frame)[1] == []
        frame = frame.copy()
        frame[32, ring.x] = OUTLINE
        assert witnessed.sample(frame)[1] == [ring]

    def test_edit_cutting_a_ring(self):
        ring = Rect(20, 20, 60, 24)
        frame = np.full((80, 120), 255.0)
        draw_ring(frame, ring)
        draw_ring(frame, Rect(2, 50, 40, 20))
        witnessed = Witnessed()
        assert witnessed.sample(frame)[1] == [ring, Rect(2, 50, 40, 20)]
        frame = frame.copy()
        frame[ring.y : ring.y2, 40:45] = 255.0  # two cuts: the ring splits in two
        _regions, outlines = witnessed.sample(frame)
        assert ring not in outlines and Rect(2, 50, 40, 20) in outlines

    def test_change_at_a_carried_box_corner_only(self):
        # A ring missing its top-left corner sits just below the border
        # cover: restoring the box's corner pixel alone (a separate 1 px
        # component, touching none of the ring's pixels) makes it pass.
        box = Rect(30, 20, 40, 20)
        frame = np.full((60, 100), 255.0)
        draw_ring(frame, box)
        frame[box.y, box.x : box.x + 19] = 255.0
        frame[box.y : box.y + 19, box.x] = 255.0
        witnessed = Witnessed()
        assert witnessed.sample(frame)[1] == []
        frame = frame.copy()
        frame[box.y, box.x] = OUTLINE
        assert witnessed.sample(frame)[1] == [box]
        frame = frame.copy()
        frame[box.y, box.x] = 255.0
        assert witnessed.sample(frame)[1] == []

    def test_sub_threshold_drift_across_the_band_edge(self):
        # Two pixels just outside the band split the ring into two arches
        # (as in the bridging case); a drift of 2 levels, which the
        # detector does not report, brings them into the band.
        ring = Rect(20, 20, 60, 24)
        frame = np.full((80, 120), 255.0)
        draw_ring(frame, ring)
        frame[32, [ring.x, ring.x2 - 1]] = OUTLINE + BAND_TOL + 1.5
        witnessed = Witnessed()
        assert witnessed.sample(frame)[1] == []
        frame = frame.copy()
        frame[frame == OUTLINE + BAND_TOL + 1.5] -= 2.0
        regions, outlines = witnessed.sample(frame)
        assert regions == [] and outlines == [ring]

    def test_sub_quantum_change_across_the_band_edge(self):
        # 130.3 and 129.9 both display as 130: the detector takes the
        # unchanged-frame fast path, yet the ring closes.
        ring = Rect(20, 20, 60, 24)
        frame = np.full((80, 120), 255.0)
        draw_ring(frame, ring)
        frame[32, [ring.x, ring.x2 - 1]] = OUTLINE + BAND_TOL + 0.3
        witnessed = Witnessed()
        assert witnessed.sample(frame)[1] == []
        frame = frame.copy()
        frame[frame == OUTLINE + BAND_TOL + 0.3] = OUTLINE + BAND_TOL - 0.1
        # The search is not run on the fast-path frame: its change is
        # carried to the next frame's search.
        assert witnessed.sample(frame, search=False)[0] == []
        frame = frame.copy()
        frame[70:72, 5:8] = 0.0
        regions, outlines = witnessed.sample(frame)
        assert regions and outlines == [ring]

    def test_fast_path_change_is_differenced_later(self):
        # 3.9 levels of drift (unreported), then 0.5 more that still
        # displays the same (fast path): the pixel is now 4.4 from the
        # validated one, and the next full diff must report it even
        # though that frame's own change is elsewhere.
        frame = np.full((40, 60), 100.0)
        witnessed = Witnessed()
        witnessed.sample(frame)
        frame = frame.copy()
        frame[5, 5] = 103.9
        assert witnessed.sample(frame)[0] == []
        frame = frame.copy()
        frame[5, 5] = 104.4
        assert witnessed.sample(frame)[0] == []
        frame = frame.copy()
        frame[30, 50] = 0.0
        regions, _outlines = witnessed.sample(frame)
        assert len(regions) == 2 and regions[0].contains(Rect(5, 5, 1, 1))

    def test_outlines_sharing_a_box_corner_keep_label_order(self):
        # Both outlines' boxes start at (10, 10); the small ring's first
        # pixel comes first in raster order.  The large one is relabelled
        # while the small one is carried: the order must not change.
        frame = np.full((90, 90), 255.0)
        small, large = Rect(10, 10, 30, 30), Rect(10, 10, 70, 70)
        draw_ring(frame, small)
        frame[10, 45:80] = OUTLINE
        frame[10:80, 79] = OUTLINE
        frame[79, 10:80] = OUTLINE
        frame[45:80, 10] = OUTLINE
        witnessed = Witnessed()
        assert witnessed.sample(frame)[1] == [small, large]
        frame = frame.copy()
        frame[75, 70] = 0.0
        assert witnessed.sample(frame)[1] == [small, large]

    def test_frame_height_change(self):
        frame = np.full((80, 120), 255.0)
        draw_ring(frame, Rect(20, 60, 60, 24))
        witnessed = Witnessed()
        assert witnessed.sample(frame)[1] == []  # cut by the frame's bottom
        taller = np.full((100, 120), 255.0)
        draw_ring(taller, Rect(20, 60, 60, 24))
        assert witnessed.sample(taller) == (None, [Rect(20, 60, 60, 24)])
        assert witnessed.sample(taller.copy()) == ([], [Rect(20, 60, 60, 24)])

    def test_bit_equal_frames_skip_quantization(self, monkeypatch):
        import repro.core.caches as caches_module

        frame = np.full((40, 60), 255.0)
        witnessed = Witnessed()
        witnessed.sample(frame)
        calls = []
        real = caches_module.to_uint8
        monkeypatch.setattr(caches_module, "to_uint8", lambda a: calls.append(a.shape) or real(a))
        witnessed.sample(frame.copy())
        assert calls == []
        frame = frame.copy()
        frame[3:5, 7:10] = 0.0
        witnessed.sample(frame)
        assert calls == [(2, 3)]  # only the changed box is quantized


class TestSoakParity:
    def test_every_call_on_the_soak_matrix_equals_the_oracle(
        self, text_model, image_model, monkeypatch
    ):
        """Over the default soak matrix, and again under the
        frame-corruption plan (where inverted patches appear and vanish),
        every POF extraction and every differential detection gives
        exactly the whole-frame result."""
        import repro.core.service as service_module
        from repro.faults import frame_corruption_plan
        from repro.scenarios import ENGINE_COMBOS, default_soak_specs, run_soak

        real_extract = service_module.extract_pofs
        real_changed = DifferentialDetector.changed
        oracles = {}
        calls = {"pof": 0, "carried": 0, "diff": 0, "pof_bad": 0, "diff_bad": 0}

        def checked_extract(frame, style=DEFAULT_POF, input_rects=None, outline_search=None):
            obs = real_extract(frame, style, input_rects=input_rects, outline_search=outline_search)
            calls["pof"] += 1
            calls["carried"] += outline_search is not None
            got = (obs.outlines, obs.carets, obs.highlights)
            calls["pof_bad"] += got != oracle_extract_pofs(frame, style, input_rects)
            return obs

        def checked_changed(detector, frame):
            regions = real_changed(detector, frame)
            oracle, previous = oracles.get(detector) or (OracleDetector(
                detector.threshold, detector.merge_radius), None)
            oracles[detector] = (oracle, frame.copy())
            calls["diff"] += 1
            calls["diff_bad"] += regions != oracle.changed(frame)
            calls["diff_bad"] += detector.change_box != exact_change_box(previous, frame)
            return regions

        monkeypatch.setattr(service_module, "extract_pofs", checked_extract)
        monkeypatch.setattr(DifferentialDetector, "changed", checked_changed)
        res = run_soak(
            default_soak_specs(),
            combos=ENGINE_COMBOS[:1],
            text_model=text_model,
            image_model=image_model,
            faults=frame_corruption_plan(),
        )
        assert res.ok, res.summary()
        assert calls["carried"] > 100 and calls["diff"] > 100, calls
        assert calls["pof_bad"] == 0 and calls["diff_bad"] == 0, calls
