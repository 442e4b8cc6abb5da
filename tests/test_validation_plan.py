"""Frame-level validation planner: batched/sequential parity + plan stats.

The planner's contract is that plan-level batching is a pure execution
strategy: for any frame — tampered or benign, aligned or retried — the
batched and sequential executors must produce identical verdicts and
failures, differing only in how many model forwards they spend.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.caches import DigestCache
from repro.core.display import DisplayValidator
from repro.core.verifiers import ImageVerifier, TextVerifier, ValidationPlan, forwards_for
from repro.datasets.forms import jotform_page
from repro.server.generate import build_vspec
from repro.raster.stacks import stack_registry
from repro.web.browser import Browser
from repro.web.hypervisor import Machine


def _render(seed: int):
    page = jotform_page(seed % 50)
    vspec = build_vspec(copy.deepcopy(page), f"pp-{seed}")
    machine = Machine(640, min(600, vspec.height))
    browser = Browser(machine, copy.deepcopy(page), stack=stack_registry()[seed % len(stack_registry())])
    browser.paint()
    return vspec, machine, browser


def _validator(vspec, text_model, image_model, batched: bool) -> DisplayValidator:
    cache = DigestCache()
    return DisplayValidator(
        vspec,
        TextVerifier(text_model, batched=batched, cache=cache.scoped("text")),
        ImageVerifier(image_model, batched=batched, cache=cache.scoped("image")),
    )


def _tampered_frame(machine, vspec, kind: str, rng) -> np.ndarray:
    frame = machine.sample_framebuffer().pixels
    if kind == "fill":
        y = int(rng.integers(0, max(frame.shape[0] - 30, 1)))
        x = int(rng.integers(0, max(frame.shape[1] - 60, 1)))
        frame = frame.copy()
        frame[y : y + 24, x : x + 48] = 120.0
    elif kind == "text":
        from repro.attacks.tamper import swap_text_on_display

        text_entries = [e for e in vspec.entries if e.kind == "text"]
        if text_entries:
            entry = text_entries[int(rng.integers(0, len(text_entries)))]
            swap_text_on_display(
                machine, entry.rect.x, entry.rect.y, "FORGED", size=14
            )
            frame = machine.sample_framebuffer().pixels
    elif kind == "shift":
        # Push every glyph one row down: the nominal crop fails and the
        # alignment-retry rings must recover (or reject) each cell — the
        # retry path runs in both modes.
        frame = np.vstack([np.full((1, frame.shape[1]), vspec.background), frame[:-1]])
    return frame


class TestPlannerParity:
    """Property: planner-batched == sequential on randomized frames."""

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        tamper=st.sampled_from(["none", "fill", "text", "shift"]),
    )
    def test_batched_and_sequential_identical(self, text_model, image_model, seed, tamper):
        vspec, machine, _browser = _render(seed)
        frame = _tampered_frame(machine, vspec, tamper, np.random.default_rng(seed))

        sequential = _validator(vspec, text_model, image_model, batched=False).validate(frame)
        batched = _validator(vspec, text_model, image_model, batched=True).validate(frame)

        assert batched.ok == sequential.ok
        assert batched.offset_y == sequential.offset_y
        assert batched.failures == sequential.failures
        assert batched.entries_checked == sequential.entries_checked
        # Same plan, same unit inputs, same cache-miss pattern...
        assert batched.plan_text_units == sequential.plan_text_units
        assert batched.plan_image_pairs == sequential.plan_image_pairs
        assert batched.text_retry_rounds == sequential.text_retry_rounds
        assert batched.text_invocations == sequential.text_invocations
        assert batched.image_invocations == sequential.image_invocations
        # ...but O(1) forwards per model kind instead of one per unit.
        if sequential.text_invocations > 1:
            assert batched.text_forwards < sequential.text_forwards


class TestRetryPath:
    def test_shifted_frame_recovered_via_batched_retry(self, text_model, image_model):
        vspec, machine, _browser = _render(3)
        frame = machine.sample_framebuffer().pixels
        shifted = np.vstack([np.full((1, frame.shape[1]), vspec.background), frame[:-1]])

        batched = _validator(vspec, text_model, image_model, batched=True)
        result = batched.validate(shifted)
        # The nominal crop misses every glyph; the (0,-1) retry ring crops
        # one row lower and recovers them — as one batched round per ring,
        # not 12 serial calls per entry.
        assert result.text_retry_rounds > 0
        assert not any(f.kind == "text" for f in result.failures), [
            f.reason for f in result.failures
        ][:3]

    def test_plan_forwards_bounded_by_retry_rounds(self, text_model, image_model):
        vspec, machine, _browser = _render(3)
        frame = machine.sample_framebuffer().pixels
        shifted = np.vstack([np.full((1, frame.shape[1]), vspec.background), frame[:-1]])
        validator = _validator(vspec, text_model, image_model, batched=True)
        result = validator.validate(shifted)
        # One nominal round + one forward per executed retry ring (chunked
        # plans may add a few more), never one forward per unit input.
        assert result.text_forwards <= 2 * (1 + result.text_retry_rounds)
        assert result.text_forwards < max(result.plan_text_units, 2)


class TestPlanUnits:
    def test_plan_collects_all_unit_inputs(self, text_model, image_model):
        vspec, machine, _browser = _render(7)
        frame = machine.sample_framebuffer().pixels
        validator = _validator(vspec, text_model, image_model, batched=True)
        result = validator.validate(frame)
        assert result.plan_text_units >= result.text_invocations
        assert result.plan_image_pairs >= result.image_invocations
        assert result.plan_text_units > 0

    def test_image_plan_groups_scatter_independently(self, image_model):
        from repro.raster.icons import render_icon

        lock = render_icon("lock", 32).pixels
        cart = render_icon("cart", 32).pixels
        plan = ValidationPlan()
        matching = plan.add_region(lock, lock)
        mismatching = plan.add_region(cart, lock)
        verifier = ImageVerifier(image_model, batched=True)
        verdicts = verifier.execute_plan(plan)
        assert verdicts[matching] is True
        assert verdicts[mismatching] is False

    def test_empty_plan_executes_to_nothing(self, text_model, image_model):
        plan = ValidationPlan()
        assert len(TextVerifier(text_model, batched=True).execute_plan(plan)) == 0
        assert ImageVerifier(image_model, batched=True).execute_plan(plan) == []

    def test_duplicate_units_cost_one_invocation_with_cache(self, text_model):
        # Repeated glyphs across a frame's plan share one cache key; the
        # round dedupes them before the forward instead of recomputing.
        from repro.raster.text import render_char_tile

        cache = DigestCache()
        verifier = TextVerifier(text_model, batched=True, cache=cache.scoped("text"))
        tile = render_char_tile("Q", 32).pixels
        verdicts = verifier.verify_tiles([tile, tile, tile], ["Q", "Q", "Q"])
        assert verifier.invocations == 1
        assert len({bool(v) for v in verdicts}) == 1

    def test_invalid_chunk_size_rejected(self, text_model):
        from repro.core.service import WitnessConfig

        with pytest.raises(ValueError, match="chunk_size"):
            TextVerifier(text_model, chunk_size=0)
        with pytest.raises(ValueError, match="predict_chunk"):
            WitnessConfig(predict_chunk=0)
        WitnessConfig(predict_chunk=None)  # unchunked is allowed

    def test_wrapper_methods_share_plan_path(self, text_model):
        # verify_cells is a thin wrapper over a single-entry plan: same
        # verdicts as planning the cells by hand.
        from repro.raster.text import char_advance, render_text_line
        from repro.vision.image import Image
        from repro.vspec.spec import CharCell

        line = render_text_line("AB", 16)
        canvas = Image.blank(80, 60, 255.0)
        canvas.paste(line, 10, 20)
        advance = char_advance(16)
        cells = [
            CharCell(10, 20, advance, 16, "A"),
            CharCell(10 + advance, 20, advance, 16, "B"),
        ]
        verifier = TextVerifier(text_model, batched=True)
        direct = verifier.verify_cells(canvas.pixels, cells)
        plan = ValidationPlan()
        cell_range = plan.add_cells(canvas.pixels, cells)
        planned = verifier.execute_plan(plan)[cell_range]
        assert np.array_equal(direct, planned)


class TestForwardAccounting:
    def test_forwards_for(self):
        assert forwards_for(0, 512) == 0
        assert forwards_for(1, None) == 1
        assert forwards_for(512, 512) == 1
        assert forwards_for(513, 512) == 2

    def test_chunked_round_charges_one_forward_per_chunk(self, text_model):
        verifier = TextVerifier(text_model, batched=True, chunk_size=4)
        tiles = [np.full((32, 32), 20.0 * i) for i in range(9)]
        verifier.verify_tiles(tiles, ["a"] * 9)
        assert verifier.invocations == 9
        assert verifier.forwards == 3  # ceil(9 / 4)
