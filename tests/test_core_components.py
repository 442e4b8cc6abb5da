"""Tests for verifiers, caches, POF extraction, sampler and timing model."""

import numpy as np
import pytest

from repro.core.caches import DifferentialDetector, DigestCache
from repro.core.pof import check_pof_consistency, extract_pofs, mask_pofs
from repro.core.sampler import ScreenshotSampler
from repro.core.timing import SessionTiming, cutoff_session_length, delay_curve, request_delay
from repro.core.verifiers import (
    ImageVerifier,
    TextVerifier,
    glyph_tile_from_frame,
    split_region_into_tiles,
    structural_match,
)
from repro.raster.stacks import stack_registry
from repro.raster.text import char_advance, render_text_line
from repro.vision.components import Rect
from repro.vision.image import Image
from repro.vspec.spec import CharCell
from repro.web import layout as lay
from repro.web.browser import Browser
from repro.web.elements import Page, TextInput
from repro.web.hypervisor import Machine
from repro.web.render import DEFAULT_POF


class TestGlyphTileExtraction:
    def test_round_trip_against_renderer(self, text_model):
        """Cells extracted from a rendered line must verify as their chars."""
        text = "Hello42"
        size = 16
        line = render_text_line(text, size)
        canvas = Image.blank(200, 40)
        canvas.paste(line, 10, 12)
        advance = char_advance(size)
        cells = [
            CharCell(10 + i * advance, 12, advance, size, ch) for i, ch in enumerate(text)
        ]
        verifier = TextVerifier(text_model)
        verdicts = verifier.verify_cells(canvas.pixels, cells)
        assert verdicts.mean() >= 6 / 7  # at most one model miss

    def test_wrong_expected_chars_rejected(self, text_model):
        text = "AAAA"
        size = 16
        line = render_text_line(text, size)
        canvas = Image.blank(100, 30)
        canvas.paste(line, 0, 4)
        advance = char_advance(size)
        cells = [CharCell(i * advance, 4, advance, size, "Z") for i in range(4)]
        verifier = TextVerifier(text_model)
        verdicts = verifier.verify_cells(canvas.pixels, cells)
        assert verdicts.mean() <= 0.25

    def test_offset_translation(self, text_model):
        line = render_text_line("X", 16)
        canvas = Image.blank(60, 120)
        canvas.paste(line, 20, 80)
        frame = canvas.crop(0, 60, 60, 60)  # scrolled view
        cell = CharCell(20, 80, char_advance(16), 16, "X")
        verifier = TextVerifier(text_model)
        assert verifier.verify_cells(frame.pixels, [cell], offset_y=60)[0]

    def test_batched_and_sequential_agree(self, text_model):
        rng = np.random.default_rng(0)
        tiles = [rng.uniform(0, 255, (32, 32)) for _ in range(6)]
        chars = list("ABCdef")
        seq = TextVerifier(text_model, chunk_size=1)
        bat = TextVerifier(text_model)
        assert np.array_equal(seq.verify_tiles(tiles, chars), bat.verify_tiles(tiles, chars))
        assert seq.invocations == bat.invocations == 6

    def test_cache_prevents_reinvocation(self, text_model):
        from repro.raster.text import render_char_tile

        cache = DigestCache()
        verifier = TextVerifier(text_model, cache=cache)
        tile = render_char_tile("Q", 32).pixels
        verifier.verify_tiles([tile], ["Q"])
        assert verifier.invocations == 1
        verifier.verify_tiles([tile], ["Q"])
        assert verifier.invocations == 1  # served from cache
        assert cache.hits >= 1

    def test_mismatched_args_rejected(self, text_model):
        verifier = TextVerifier(text_model)
        with pytest.raises(ValueError):
            verifier.verify_tiles([np.zeros((32, 32))], ["a", "b"])


class TestRegionTiling:
    def test_split_covers_region(self):
        region = np.zeros((70, 50))
        tiles = split_region_into_tiles(region)
        assert len(tiles) == 3 * 2  # ceil(70/32) x ceil(50/32)
        assert all(t.shape == (32, 32) for t, _pos in tiles)

    def test_small_region_single_padded_tile(self):
        tiles = split_region_into_tiles(np.zeros((10, 10)), background=9.0)
        assert len(tiles) == 1
        tile, _pos = tiles[0]
        assert tile[15, 15] == 9.0

    def test_image_verifier_identical_regions_match(self, image_model):
        from repro.raster.icons import render_icon

        icon = render_icon("gear", 32).pixels
        verifier = ImageVerifier(image_model)
        assert verifier.verify_region(icon, icon)

    def test_image_verifier_cross_stack_matches(self, image_model):
        from repro.raster.icons import render_icon

        ref = render_icon("lock", 32).pixels
        other = render_icon("lock", 32, stack=stack_registry()[1]).pixels
        assert ImageVerifier(image_model).verify_region(other, ref)

    def test_image_verifier_different_content_rejected(self, image_model):
        from repro.raster.icons import render_icon

        a = render_icon("lock", 32).pixels
        b = render_icon("cart", 32).pixels
        assert not ImageVerifier(image_model).verify_region(b, a)

    def test_shape_mismatch_is_failure(self, image_model):
        verifier = ImageVerifier(image_model)
        assert not verifier.verify_region(np.zeros((32, 32)), np.zeros((16, 16)))


class TestStructuralMatch:
    def test_cross_stack_chrome_matches(self):
        a = render_text_line("Submit", 14).pixels
        b = render_text_line("Submit", 14, stack=stack_registry()[2]).pixels
        assert structural_match(a, b)

    def test_different_content_rejected(self):
        a = render_text_line("Submit", 14).pixels
        b = render_text_line("Cancel", 14).pixels[:, : a.shape[1]]
        b = b if b.shape == a.shape else a * 0
        assert not structural_match(a, b)

    def test_checkbox_states_distinguished(self):
        from repro.server.generate import build_vspec
        from repro.web.elements import Checkbox

        page = Page(title="T", elements=[Checkbox("ok", "OK")])
        vspec = build_vspec(page, "p")
        entry = vspec.entry_for_input("ok")
        on = entry.state_appearances["on"]
        off = entry.state_appearances["off"]
        assert structural_match(on, on)
        assert not structural_match(on, off)


class TestCaches:
    def test_digest_cache_hit_miss_accounting(self):
        cache = DigestCache()
        assert cache.get("k") is None
        cache.put("k", True)
        assert cache.get("k") is True
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_capacity_cap_evicts_coldest(self):
        cache = DigestCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.get("a") is None

    def test_overwrite_at_capacity_does_not_evict(self):
        # Overwriting a present key does not grow the store, so nothing
        # unrelated may be evicted.
        cache = DigestCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 3)
        assert len(cache) == 2
        assert cache.get("b") == 2
        assert cache.get("a") == 3

    def test_lru_get_refreshes_recency(self):
        cache = DigestCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "a" becomes most recently used
        cache.put("c", 3)  # evicts "b", the coldest entry
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_none_put_rejected(self):
        # None is the public miss signal; storing it would make stats and
        # semantics disagree (a counted hit returned as a miss).
        cache = DigestCache()
        with pytest.raises(ValueError, match="None"):
            cache.put("k", None)
        assert len(cache) == 0
        assert cache.get("k") is None
        assert cache.hits == 0 and cache.misses == 1

    def test_falsy_values_are_exact_hits(self):
        cache = DigestCache()
        cache.put("k", False)
        assert cache.get("k") is False
        assert cache.hits == 1 and cache.misses == 0

    def test_differential_detector_lifecycle(self):
        detector = DifferentialDetector()
        frame = np.full((40, 40), 255.0)
        assert detector.changed(frame) is None  # first frame: validate all
        assert detector.changed(frame) == []  # identical: skip
        changed = frame.copy()
        changed[5:9, 5:9] = 0.0
        regions = detector.changed(changed)
        assert len(regions) == 1
        assert regions[0].contains(Rect(5, 5, 4, 4))

    def test_differential_detector_accumulates_sub_threshold_drift(self):
        """A label darkened 3 levels per frame (under the 4-level
        threshold each time) is reported once its drift from the last
        validated pixels exceeds the threshold."""
        detector = DifferentialDetector()
        frame = np.full((40, 60), 255.0)
        frame[10:14, 10:40] = 60.0
        assert detector.changed(frame) is None
        label = Rect(10, 10, 30, 4)
        reports = []
        for _step in range(4):
            frame = frame.copy()
            frame[label.y : label.y2, label.x : label.x2] -= 3.0
            reports.append(detector.changed(frame))
        # 3 levels: not yet; 6: reported; then 3 and 6 again from the
        # newly validated pixels.
        assert reports[0] == [] and reports[2] == []
        for regions in (reports[1], reports[3]):
            assert len(regions) == 1 and regions[0].contains(label)

    def test_differential_detector_repeated_frame_after_drift(self):
        """The last frame again is unchanged, even though it already
        drifted (under the threshold) from the validated pixels."""
        detector = DifferentialDetector()
        frame = np.full((20, 20), 200.0)
        detector.changed(frame)
        drifted = frame - 3.0
        assert detector.changed(drifted) == []
        assert detector.changed(drifted.copy()) == []
        assert detector.changed(drifted - 3.0) != []


class TestPOF:
    def _focused_frame(self, value="hi", select=None):
        page = Page(title="T", width=640, elements=[TextInput("a", label="A")])
        machine = Machine(640, 200)
        browser = Browser(machine, page)
        browser.paint()
        field = page.elements[0]
        box = lay.input_box_rect(field)
        browser.click(*box.center)
        browser.type_text(value)
        if select is not None:
            browser.select_range(*select)
        return machine.sample_framebuffer().pixels, lay.input_box_rect(field)

    def test_extracts_outline_and_caret(self):
        frame, box = self._focused_frame()
        obs = extract_pofs(frame, input_rects=[box])
        assert len(obs.outlines) == 1
        assert len(obs.carets) == 1
        assert not obs.highlights
        assert obs.outlines[0].expanded(6).contains(box)

    def test_selection_replaces_caret(self):
        frame, box = self._focused_frame(value="hello", select=(0, 4))
        obs = extract_pofs(frame, input_rects=[box])
        assert len(obs.highlights) == 1
        assert not obs.carets

    def test_consistency_accepts_honest_frame(self):
        frame, box = self._focused_frame()
        obs = extract_pofs(frame, input_rects=[box])
        assert check_pof_consistency(obs, [box]) == []

    def test_two_outlines_flagged(self):
        frame, box = self._focused_frame()
        img = Image(frame.copy())
        other = Rect(400, 150, 120, 30)
        img.draw_border(other.x, other.y, other.w, other.h, DEFAULT_POF.outline_intensity, 2)
        obs = extract_pofs(img.pixels, input_rects=[box, other])
        violations = check_pof_consistency(obs, [box, other])
        assert any("focus outlines" in v for v in violations)

    def test_caret_and_highlight_coexistence_flagged(self):
        frame, box = self._focused_frame(value="hello", select=(0, 3))
        img = Image(frame.copy())
        img.draw_vline(box.x2 - 8, box.y + 5, box.h - 10, DEFAULT_POF.caret_intensity, 2)
        obs = extract_pofs(img.pixels, input_rects=[box])
        violations = check_pof_consistency(obs, [box])
        assert any("simultaneously" in v for v in violations)

    def test_pof_outside_fields_flagged(self):
        frame, box = self._focused_frame()
        img = Image(frame.copy())
        img.fill_rect(500, 20, 40, 14, DEFAULT_POF.highlight_intensity)
        far = Rect(480, 10, 80, 40)
        obs = extract_pofs(img.pixels, input_rects=[box, far])
        violations = check_pof_consistency(obs, [box])
        assert violations  # highlight (or outline set) inconsistent

    def test_mask_pofs_removes_cues(self):
        frame, box = self._focused_frame()
        obs = extract_pofs(frame, input_rects=[box])
        clean = mask_pofs(frame, obs)
        clean_obs = extract_pofs(clean, input_rects=[box])
        assert not clean_obs.carets
        assert not clean_obs.outlines

    def test_glyph_edges_not_mistaken_for_carets(self):
        # A page full of 'l' glyphs (straight vertical strokes) must not
        # produce caret detections inside the field.
        frame, box = self._focused_frame(value="lllll")
        obs = extract_pofs(frame, input_rects=[box])
        assert len(obs.carets) == 1  # only the real caret

    def test_glyph_stems_not_carets_on_any_named_stack(self):
        """Soak regression: on some stacks ('gecko-windows' et al.) an
        'l'/'1' stem's ink lands in the caret intensity band with bright
        inter-glyph flanks; only the caret height floor keeps it out."""
        from repro.raster.stacks import stack_registry as _stacks

        for stack in _stacks():
            page = Page(
                title="T",
                width=640,
                elements=[TextInput("email", label="Email", value="ana@example.com")],
            )
            machine = Machine(640, 200)
            browser = Browser(machine, page, stack=stack)
            field = page.elements[0]
            browser.focused_id = field.element_id
            field.caret = len(field.value)
            browser.paint()
            frame = machine.sample_framebuffer().pixels
            box = lay.input_box_rect(field)
            obs = extract_pofs(frame, input_rects=[box])
            # At most the real caret; never a glyph-stem misdetection.
            assert len(obs.carets) <= 1, stack.name
            for caret in obs.carets:
                assert caret.h >= DEFAULT_POF.caret_min_height, stack.name

    def test_caret_at_frame_edge_accepted(self):
        """A caret within 2px of the frame's left edge has no left flank;
        the right flank alone must carry the brightness test."""
        frame = np.full((60, 40), 252.0)
        frame[10:32, 0:2] = DEFAULT_POF.caret_intensity  # caret at x=0
        box = Rect(0, 5, 36, 40)
        obs = extract_pofs(frame, input_rects=[box])
        assert len(obs.carets) == 1
        assert obs.carets[0].x == 0

    def test_caret_at_right_frame_edge_accepted(self):
        frame = np.full((60, 40), 252.0)
        frame[10:32, 38:40] = DEFAULT_POF.caret_intensity  # caret at right edge
        box = Rect(4, 5, 36, 40)
        obs = extract_pofs(frame, input_rects=[box])
        assert len(obs.carets) == 1

    def test_edge_caret_with_inky_flank_still_rejected(self):
        """The surviving flank still discriminates: ink beside an
        edge-hugging caret keeps it rejected."""
        frame = np.full((60, 40), 252.0)
        frame[10:32, 0:2] = DEFAULT_POF.caret_intensity
        frame[8:34, 2:5] = 0.0  # dark ink immediately right of the bar
        box = Rect(0, 5, 36, 40)
        obs = extract_pofs(frame, input_rects=[box])
        assert not obs.carets


class TestSampler:
    def test_mean_delay_near_quarter_second(self):
        sampler = ScreenshotSampler(0.0, seed=1)
        delays = []
        now = sampler.next_sample_ms
        for _ in range(400):
            nxt = sampler.schedule_next(now)
            delays.append(nxt - now)
            now = nxt
        assert 220 <= np.mean(delays) <= 280
        assert max(delays) <= 500.0

    def test_periodic_mode_fixed(self):
        sampler = ScreenshotSampler(0.0, seed=1, periodic=True)
        now = sampler.next_sample_ms
        assert now == 250.0
        assert sampler.schedule_next(now) == now + 250.0

    def test_due_logic(self):
        sampler = ScreenshotSampler(0.0, seed=2)
        assert not sampler.due(sampler.next_sample_ms - 1)
        assert sampler.due(sampler.next_sample_ms)

    def test_invalid_delay_rejected(self):
        with pytest.raises(ValueError):
            ScreenshotSampler(0.0, max_delay_ms=0)


class TestTimingModel:
    def _timing(self):
        return SessionTiming(
            t_init=0.5,
            frame_times=[1.0, 0.2, 0.2, 0.2],
            frame_sample_times_ms=[100.0, 400.0, 700.0, 1000.0],
            t_request=0.05,
        )

    def test_zero_session_pays_everything(self):
        timing = self._timing()
        assert request_delay(timing, 0.0) == pytest.approx(
            timing.t_init + sum(timing.frame_times) + timing.t_request
        )

    def test_long_session_pays_only_floor(self):
        timing = self._timing()
        floor = timing.frame_times[-1] + timing.t_request
        assert request_delay(timing, 100.0) == pytest.approx(floor)

    def test_delay_monotonically_non_increasing(self):
        timing = self._timing()
        lengths = np.linspace(0.0, 20.0, 60)
        delays = [request_delay(timing, s) for s in lengths]
        assert all(a >= b - 1e-9 for a, b in zip(delays, delays[1:]))

    def test_cutoff_consistent_with_curve(self):
        timing = self._timing()
        cutoff = cutoff_session_length(timing, max_seconds=30.0, resolution=0.01)
        floor = timing.frame_times[-1] + timing.t_request
        assert request_delay(timing, cutoff) <= floor + 0.01
        if cutoff > 0.02:
            assert request_delay(timing, cutoff - 0.02) > floor + 0.005

    def test_delay_curve_pairs(self):
        timing = self._timing()
        curve = delay_curve(timing, [0.0, 5.0])
        assert curve[0][1] >= curve[1][1]

    def test_negative_session_rejected(self):
        with pytest.raises(ValueError):
            request_delay(self._timing(), -1.0)

    def test_sample_times_drive_arrivals(self):
        """The sample-instant branch: late-clustered samples raise the delay."""
        uniform = SessionTiming(frame_times=[0.2, 0.2, 0.2], t_request=0.05)
        clustered = SessionTiming(
            frame_times=[0.2, 0.2, 0.2],
            frame_sample_times_ms=[980.0, 990.0, 1000.0],
            t_request=0.05,
        )
        # All three frames arrive just before submission: their work can
        # barely overlap the session, unlike evenly spread arrivals.
        assert request_delay(clustered, 10.0) > request_delay(uniform, 10.0)

    def test_empty_sample_times_use_uniform_arrivals(self):
        """The fallback branch: no sample instants -> evenly spread arrivals."""
        timing = SessionTiming(frame_times=[0.3, 0.3], t_request=0.1)
        explicit = SessionTiming(
            frame_times=[0.3, 0.3],
            frame_sample_times_ms=[500.0, 1000.0],
            t_request=0.1,
        )
        assert request_delay(timing, 4.0) == pytest.approx(request_delay(explicit, 4.0))

    def test_sample_time_length_mismatch_is_loud(self):
        """A frame_times/frame_sample_times_ms mismatch must raise, not
        silently fall back to uniform arrivals."""
        timing = SessionTiming(
            frame_times=[0.2, 0.2, 0.2],
            frame_sample_times_ms=[100.0, 200.0],  # one entry short
            t_request=0.05,
        )
        with pytest.raises(ValueError, match="lockstep"):
            request_delay(timing, 5.0)
