"""Frame-level validation planner: chunk-size parity + plan stats.

The planner's contract is that the forward's chunk size is a pure
execution strategy: for any frame — tampered or benign, aligned or
retried — chunk 512 (the batched GPU setup) and chunk 1 (the per-unit
CPU setup) must produce identical verdicts, failures and invocations,
differing only in how many model forwards they spend.
"""

import copy
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.caches import DigestCache
from repro.core.display import DisplayValidator
from repro.core.verifiers import (
    PLAN_DTYPE,
    ImageVerifier,
    TextVerifier,
    ValidationPlan,
    forwards_for,
)
from repro.datasets.forms import jotform_page
from repro.nn.model import PREDICT_CHUNK
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


def _validator(vspec, text_model, image_model, chunk_size: int = PREDICT_CHUNK) -> DisplayValidator:
    cache = DigestCache()
    return DisplayValidator(
        vspec,
        TextVerifier(text_model, cache=cache.scoped("text"), chunk_size=chunk_size),
        ImageVerifier(image_model, cache=cache.scoped("image"), chunk_size=chunk_size),
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
    """Property: chunk 512 == chunk 1 on randomized frames."""

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        tamper=st.sampled_from(["none", "fill", "text", "shift"]),
    )
    def test_batched_and_sequential_identical(self, text_model, image_model, seed, tamper):
        vspec, machine, _browser = _render(seed)
        frame = _tampered_frame(machine, vspec, tamper, np.random.default_rng(seed))

        sequential = _validator(vspec, text_model, image_model, chunk_size=1).validate(frame)
        batched = _validator(vspec, text_model, image_model).validate(frame)

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
        assert sequential.text_forwards == sequential.text_invocations
        assert sequential.image_forwards == sequential.image_invocations
        if sequential.text_invocations > 1:
            assert batched.text_forwards < sequential.text_forwards


class TestChunkParity:
    @settings(max_examples=3, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        kind=st.sampled_from(["none", "fill", "text", "shift"]),
    )
    def test_chunk_512_chunk_1_and_threaded_agree(
        self, text_model, image_model, seed, kind
    ):
        """Chunk 512, chunk 1, and two concurrent chunk-512 validators on
        their own threads agree verdict for verdict and invocation for
        invocation; chunk 1 spends one forward per invocation, chunk 512
        at most one per round."""
        rng = np.random.default_rng(seed)
        vspec, machine, _browser = _render(seed % 23)
        frame = _tampered_frame(machine, vspec, kind, rng)

        batched = _validator(vspec, text_model, image_model, chunk_size=512).validate(frame)
        sequential = _validator(vspec, text_model, image_model, chunk_size=1).validate(frame)
        with ThreadPoolExecutor(max_workers=2) as tpool:
            threaded = list(
                tpool.map(
                    lambda _i: _validator(vspec, text_model, image_model).validate(frame),
                    range(2),
                )
            )

        for other in [sequential, *threaded]:
            assert other.ok == batched.ok
            assert other.failures == batched.failures
            assert other.offset_y == batched.offset_y
            assert other.plan_text_units == batched.plan_text_units
            assert other.plan_image_pairs == batched.plan_image_pairs
            assert other.text_retry_rounds == batched.text_retry_rounds
            assert other.text_invocations == batched.text_invocations
            assert other.image_invocations == batched.image_invocations
        for other in threaded:
            assert other.text_forwards == batched.text_forwards
            assert other.image_forwards == batched.image_forwards
        assert sequential.text_forwards == sequential.text_invocations
        assert sequential.image_forwards == sequential.image_invocations
        assert batched.text_forwards <= 1 + batched.text_retry_rounds
        assert batched.image_forwards <= 1


class TestRetryPath:
    def test_shifted_frame_recovered_via_batched_retry(self, text_model, image_model):
        vspec, machine, _browser = _render(3)
        frame = machine.sample_framebuffer().pixels
        shifted = np.vstack([np.full((1, frame.shape[1]), vspec.background), frame[:-1]])

        batched = _validator(vspec, text_model, image_model)
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
        validator = _validator(vspec, text_model, image_model)
        result = validator.validate(shifted)
        # One nominal round + one forward per executed retry ring (chunked
        # plans may add a few more), never one forward per unit input.
        assert result.text_forwards <= 2 * (1 + result.text_retry_rounds)
        assert result.text_forwards < max(result.plan_text_units, 2)


class TestPlanUnits:
    def test_plan_collects_all_unit_inputs(self, text_model, image_model):
        vspec, machine, _browser = _render(7)
        frame = machine.sample_framebuffer().pixels
        validator = _validator(vspec, text_model, image_model)
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
        verifier = ImageVerifier(image_model)
        verdicts = verifier.execute_plan(plan)
        assert verdicts[matching] is True
        assert verdicts[mismatching] is False

    def test_empty_plan_executes_to_nothing(self, text_model, image_model):
        plan = ValidationPlan()
        assert len(TextVerifier(text_model).execute_plan(plan)) == 0
        assert ImageVerifier(image_model).execute_plan(plan) == []

    def test_duplicate_units_cost_one_invocation_with_cache(self, text_model):
        # Repeated glyphs across a frame's plan share one cache key; the
        # round dedupes them before the forward instead of recomputing.
        from repro.raster.text import render_char_tile

        cache = DigestCache()
        verifier = TextVerifier(text_model, cache=cache.scoped("text"))
        tile = render_char_tile("Q", 32).pixels
        verdicts = verifier.verify_tiles([tile, tile, tile], ["Q", "Q", "Q"])
        assert verifier.invocations == 1
        assert len({bool(v) for v in verdicts}) == 1

    def test_invalid_chunk_size_rejected(self, text_model, image_model):
        with pytest.raises(ValueError, match="chunk_size"):
            TextVerifier(text_model, chunk_size=0)
        with pytest.raises(ValueError, match="chunk_size"):
            ImageVerifier(image_model, chunk_size=0)
        TextVerifier(text_model, chunk_size=None)  # unchunked is allowed

    def test_plan_columns_are_float32_and_shapes_checked(self):
        plan = ValidationPlan()
        region = np.full((40, 40), 128.0)
        plan.add_region(region, region)
        assert plan.image_observed.dtype == PLAN_DTYPE == np.float32
        assert plan.image_expected.dtype == PLAN_DTYPE
        assert plan.image_observed.shape == (4, 32, 32)
        assert plan.text_tiles.shape == (0, 32, 32)
        with pytest.raises(ValueError):
            plan.add_region(region, np.full((40, 41), 128.0))

    def test_units_reach_the_model_as_float32_scaled_in_float32(self):
        """Tiles are cast to float32 before the ``/ 255``, so the model
        sees exactly float32(tile) / float32(255) for every row."""
        from repro.raster.text import char_advance, render_text_line
        from repro.vision.image import Image
        from repro.vspec.spec import CharCell

        seen = []

        class Recorder:
            def predict(self, observed, expected, chunk_size=None):
                seen.append((observed.copy(), expected.copy()))
                return np.ones(observed.shape[0], dtype=bool)

        line = render_text_line("Ab", 14)  # 14px glyphs: resampled to 32x32
        canvas = Image.blank(80, 40, 255.0)
        canvas.paste(line, 5, 9)
        advance = char_advance(14)
        cells = [CharCell(5, 9, advance, 14, "A"), CharCell(5 + advance, 9, advance, 14, "b")]
        plan = ValidationPlan()
        plan.add_cells(canvas.pixels, cells)
        region = np.linspace(0.0, 255.0, 40 * 40).reshape(40, 40)
        plan.add_region(region, region[::-1])
        assert TextVerifier(Recorder()).execute_plan(plan).all()
        assert ImageVerifier(Recorder()).execute_plan(plan) == [True]

        (text_obs, text_exp), (image_obs, image_exp) = seen
        assert text_obs.dtype == text_exp.dtype == np.float32
        assert image_obs.dtype == image_exp.dtype == np.float32
        assert np.array_equal(text_obs[:, 0], plan.text_tiles / np.float32(255.0))
        assert np.array_equal(image_obs[:, 0], plan.image_observed / np.float32(255.0))
        assert np.array_equal(image_exp[:, 0], plan.image_expected / np.float32(255.0))
        assert (plan.text_tiles / np.float32(255.0)).dtype == np.float32

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
        verifier = TextVerifier(text_model)
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
        verifier = TextVerifier(text_model, chunk_size=4)
        tiles = [np.full((32, 32), 20.0 * i) for i in range(9)]
        verifier.verify_tiles(tiles, ["a"] * 9)
        assert verifier.invocations == 9
        assert verifier.forwards == 3  # ceil(9 / 4)
