"""Tests for template matching and viewport localisation."""

import numpy as np
import pytest

from repro.raster.stacks import stack_registry
from repro.raster.text import render_text_line
from repro.vision import match as match_module
from repro.vision.components import Rect
from repro.vision.image import Image, as_array
from repro.vision.match import (
    MatchResult,
    PageSpectrum,
    best_vertical_offset,
    match_template,
    normalized_cross_correlation,
)


def _page_with_sections() -> Image:
    page = Image.blank(200, 600)
    page.paste(render_text_line("SECTION A", 20), 10, 100)
    page.paste(render_text_line("SECTION B", 20), 10, 400)
    return page


class TestNCC:
    def test_identical_patches_score_one(self):
        rng = np.random.default_rng(0)
        patch = rng.uniform(0, 255, (16, 16))
        assert normalized_cross_correlation(patch, patch) == pytest.approx(1.0)

    def test_affine_intensity_invariance(self):
        rng = np.random.default_rng(1)
        patch = rng.uniform(0, 255, (16, 16))
        assert normalized_cross_correlation(patch, 0.5 * patch + 30) == pytest.approx(1.0)

    def test_inverted_patch_scores_minus_one(self):
        rng = np.random.default_rng(2)
        patch = rng.uniform(0, 255, (16, 16))
        assert normalized_cross_correlation(patch, -patch) == pytest.approx(-1.0)

    def test_constant_patches_fallback(self):
        a = np.full((8, 8), 100.0)
        assert normalized_cross_correlation(a, a + 1.0) == 1.0
        assert normalized_cross_correlation(a, a + 50.0) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            normalized_cross_correlation(np.zeros((4, 4)), np.zeros((5, 4)))


class TestViewportSearch:
    def test_exact_crop_found_at_offset(self):
        page = _page_with_sections()
        frame = page.crop(0, 380, 200, 120)
        result = best_vertical_offset(frame, page)
        assert result.offset == 380
        assert result.score == pytest.approx(1.0)

    def test_cross_stack_crop_found_nearby(self):
        page = _page_with_sections()
        stack = stack_registry()[3]
        client = Image.blank(200, 600, stack.background)
        client.paste(render_text_line("SECTION A", 20, stack=stack), 10, 100)
        client.paste(render_text_line("SECTION B", 20, stack=stack), 10, 400)
        frame = client.crop(0, 380, 200, 120)
        result = best_vertical_offset(frame, page)
        assert abs(result.offset - 380) <= 2
        assert result.score > 0.9

    def test_stride_coarse_search_still_finds_offset(self):
        page = _page_with_sections()
        # 93 lies off every coarse grid and the window contains SECTION A.
        frame = page.crop(0, 93, 200, 120)
        result = best_vertical_offset(frame, page)
        assert result.offset == 93

    def test_blank_frame_matches_some_blank_window(self):
        page = _page_with_sections()
        frame = page.crop(0, 233, 200, 120)  # all-background window
        result = best_vertical_offset(frame, page)
        matched = page.crop(0, result.offset, 200, 120)
        assert matched.equals(frame, tolerance=1.0)

    def test_full_height_frame_offset_zero(self):
        page = _page_with_sections()
        result = best_vertical_offset(page, page)
        assert result.offset == 0
        assert result.score == pytest.approx(1.0)

    def test_width_mismatch_raises(self):
        page = _page_with_sections()
        with pytest.raises(ValueError):
            best_vertical_offset(Image.blank(100, 50), page)

    def test_frame_taller_than_page_raises(self):
        page = _page_with_sections()
        with pytest.raises(ValueError):
            best_vertical_offset(Image.blank(200, 700), page)


def _brute_force(frame, page) -> MatchResult:
    """The oracle: the shipped NCC at every offset, exact ties to the lowest."""
    f, p = as_array(frame), as_array(page)
    n = f.shape[0]
    best = MatchResult(0, -np.inf)
    for off in range(p.shape[0] - n + 1):
        score = normalized_cross_correlation(f, p[off : off + n])
        if score > best.score:
            best = MatchResult(off, score)
    return best


def _periodic_form(rows: int = 10) -> Image:
    """A tall form whose label + box rows repeat every 60px; labels cycle
    through three strings, so whole windows nearly repeat."""
    page = Image.blank(220, rows * 60 + 30, 252.0)
    for i in range(rows):
        page.paste(render_text_line(f"Field {i % 3}", 14), 10, 10 + 60 * i)
        page.draw_border(10, 30 + 60 * i, 180, 24, 120.0)
    return page


def _parity_cases():
    rng = np.random.default_rng(7)
    for seed in range(3):
        height, width = int(rng.integers(60, 240)), int(rng.integers(4, 40))
        page = rng.uniform(0, 255, (height, width))
        n = int(rng.integers(1, height))
        off = int(rng.integers(0, height - n + 1))
        yield f"random-{seed}", page[off : off + n] + rng.normal(0, 8, (n, width)), page
    form = _periodic_form()
    filled = form.copy()
    filled.paste(render_text_line("typed", 14), 14, 36 + 60 * 4)
    yield "periodic-form", filled.pixels[200:380], form.pixels
    sections = _page_with_sections().pixels
    yield "blank-frame", sections[233:353], sections
    yield "noisy-blank-frame", sections[233:353] + rng.uniform(-1, 1, (120, 200)), sections
    yield "unmatched-blank-frame", np.full((120, 200), 100.0), sections
    yield "blank-frame-inexact-mean", np.full((40, 200), 251.37), sections[:200]
    faint = sections.copy()
    faint[300:304, 20:60] -= 6.0  # near-constant windows: range 6
    yield "faint-content", faint[250:370] + rng.normal(0, 1, (120, 200)), faint
    bottom = form.pixels[-130:].copy()
    bottom[100:110, 150:200] = 0.0  # the last window is the only near match
    yield "bottom-offset", bottom, form.pixels
    yield "frame-equals-page", sections, sections


class TestExhaustiveSearchParity:
    """The FFT search returns the brute-force NCC argmax, bit for bit."""

    @pytest.mark.parametrize(
        "name, frame, page", list(_parity_cases()), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_matches_brute_force(self, name, frame, page):
        expected = _brute_force(frame, page)
        if name == "bottom-offset":
            assert expected.offset == page.shape[0] - frame.shape[0]
        assert best_vertical_offset(frame, page) == expected
        assert best_vertical_offset(frame, PageSpectrum(page)) == expected

    @pytest.mark.parametrize("noise", [0.0, 1.0])
    def test_blank_frame_scores_few_windows(self, monkeypatch, noise):
        """Blank windows are settled from per-row min/max, not one NCC each."""
        real = match_module.normalized_cross_correlation
        calls = []
        monkeypatch.setattr(
            match_module, "normalized_cross_correlation", lambda a, b: calls.append(1) or real(a, b)
        )
        sections = _page_with_sections().pixels
        frame = sections[233:353] + np.random.default_rng(4).uniform(-noise, noise, (120, 200))
        assert best_vertical_offset(frame, sections).score == 1.0
        assert len(calls) <= 2

    def test_updated_spectrum_matches_fresh(self):
        form = _periodic_form()
        target = PageSpectrum(form.pixels)
        best_vertical_offset(form.pixels[130:190], target)  # computes the spectrum
        box = Rect(0, 250, 220, 60)
        texture = np.random.default_rng(3).uniform(0, 255, (box.h, box.w))
        form.pixels[box.y : box.y2, box.x : box.x2] = texture
        target.update(box)
        # Only the edited page holds this frame: a stale spectrum ranks
        # some other window first.
        result = best_vertical_offset(texture, target)
        assert result == _brute_force(texture, form) == MatchResult(250, 1.0)


class TestLazySpectrum:
    """``update`` only records a box; the next search or copy refreshes it."""

    def _edits(self):
        rng = np.random.default_rng(5)
        a, b = Rect(0, 250, 220, 60), Rect(100, 400, 90, 40)
        return [(box, rng.uniform(0, 255, (box.h, box.w))) for box in (a, a, b, a)]

    def test_lazy_searches_equal_fresh(self):
        form = _periodic_form()
        lazy = PageSpectrum(form.pixels)
        best_vertical_offset(form.pixels[130:190], lazy)  # computes the spectrum
        edits = self._edits()
        for box, texture in edits:
            form.pixels[box.y : box.y2, box.x : box.x2] = texture
            lazy.update(box)
        assert lazy._stale == [edits[0][0], edits[2][0]]  # recorded once each
        for box, _texture in edits[2:]:
            # Only the edited page holds these frames: a stale spectrum
            # ranks some other window first.
            frame = np.ascontiguousarray(form.pixels[box.y : box.y + 60])
            expected = _brute_force(frame, form)
            assert expected.offset == box.y
            assert best_vertical_offset(frame, lazy) == expected
            assert best_vertical_offset(frame, PageSpectrum(form.pixels.copy())) == expected
        assert lazy._stale == []

    def test_copy_refreshes_first(self):
        form = _periodic_form()
        lazy = PageSpectrum(form.pixels)
        best_vertical_offset(form.pixels[130:190], lazy)
        box, texture = self._edits()[0]
        form.pixels[box.y : box.y2, box.x : box.x2] = texture
        lazy.update(box)
        twin = lazy.copy(form.pixels.copy())
        frame = np.ascontiguousarray(form.pixels[box.y : box.y + 60])
        assert best_vertical_offset(frame, twin) == _brute_force(frame, form) == MatchResult(box.y, 1.0)

    def test_unsearched_page_records_nothing(self):
        page = PageSpectrum(_periodic_form().pixels)
        page.update(Rect(0, 0, 10, 10))
        assert page._stale == []


class TestTemplateMatch:
    def test_finds_all_instances_with_nms(self):
        canvas = Image.blank(64, 64)
        template = Image.blank(6, 6, 0.0)
        template.pixels[2:4, 2:4] = 255.0
        canvas.paste(template, 5, 5)
        canvas.paste(template, 40, 30)
        hits = match_template(canvas, template, threshold=0.99)
        positions = {(x, y) for x, y, _ in hits}
        assert (5, 5) in positions
        assert (40, 30) in positions
        assert len(hits) == 2

    def test_no_hits_below_threshold(self):
        canvas = Image.blank(32, 32, 255.0)
        template = Image(np.random.default_rng(5).uniform(0, 255, (8, 8)))
        assert match_template(canvas, template, threshold=0.9) == []

    def test_oversized_template_returns_empty(self):
        assert match_template(Image.blank(4, 4), Image.blank(8, 8)) == []
