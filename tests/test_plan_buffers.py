"""Zero-copy plan transport: pooled buffers from collect to forward.

Covers the :mod:`repro.core.planbuf` pool layer (reuse across frames,
thread confinement, LRU bounding, growth semantics), the retry-ring
buffer reuse in :meth:`TextVerifier.execute_plan`, and — the load-bearing
property — that moving unit inputs into pooled buffers changed nothing
about verdicts: batched, sequential and concurrently-threaded validation
stay bit-identical over randomized honest/tampered frames.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planbuf import PLAN_DTYPE, PlanBuffers, thread_pool
from repro.core.verifiers import TILE, ValidationPlan

from tests.test_validation_plan import _render, _tampered_frame, _validator


# ---------------------------------------------------------------------------
# PlanBuffers unit behavior
# ---------------------------------------------------------------------------


class TestPlanBuffers:
    def test_reserve_allocates_once_and_reuses(self):
        pool = PlanBuffers()
        a = pool.reserve("k", 8, (TILE, TILE))
        b = pool.reserve("k", 5, (TILE, TILE))
        assert b is a
        assert a.dtype == PLAN_DTYPE
        assert a.shape[0] >= 8
        assert pool.allocations == 1
        assert pool.hits == 1

    def test_growth_preserves_written_rows(self):
        pool = PlanBuffers()
        first = pool.reserve("k", 2, (4,))
        first[0] = 1.5
        first[1] = 2.5
        grown = pool.reserve("k", 5, (4,))
        assert grown.shape[0] >= 5
        assert np.all(grown[0] == 1.5) and np.all(grown[1] == 2.5)
        assert pool.allocations == 2

    def test_trailing_or_dtype_change_replaces_buffer(self):
        pool = PlanBuffers()
        a = pool.reserve("k", 4, (TILE, TILE))
        b = pool.reserve("k", 4, (TILE,))
        assert b.shape[1:] == (TILE,)
        c = pool.reserve("k", 4, (TILE,), dtype=np.float64)
        assert c.dtype == np.float64
        assert a.shape[1:] == (TILE, TILE)  # old backing untouched

    def test_lru_eviction_past_max_shapes(self):
        pool = PlanBuffers(max_shapes=2)
        pool.reserve("a", 1, (2,))
        pool.reserve("b", 1, (2,))
        pool.reserve("c", 1, (2,))
        assert pool.peek("a") is None  # least recently used fell out
        assert pool.peek("b") is not None and pool.peek("c") is not None
        assert pool.evictions == 1
        # Touching "b" marks it most recent; the next insert evicts "c".
        pool.reserve("b", 1, (2,))
        pool.reserve("d", 1, (2,))
        assert pool.peek("c") is None and pool.peek("b") is not None

    def test_max_shapes_validated(self):
        with pytest.raises(ValueError):
            PlanBuffers(max_shapes=0)

    def test_thread_pool_is_thread_confined(self):
        pools = {}

        def grab(slot):
            pools[slot] = thread_pool()
            assert thread_pool() is pools[slot]  # stable within a thread

        grab("main")
        threads = [threading.Thread(target=grab, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        distinct = {id(p) for p in pools.values()}
        assert len(distinct) == 3


# ---------------------------------------------------------------------------
# Plan-level reuse
# ---------------------------------------------------------------------------


class TestPlanReuse:
    def test_reset_keeps_buffers_resident(self):
        plan = ValidationPlan()
        frame = np.full((64, 64), 255.0)
        region = np.full((40, 40), 128.0)
        plan.add_region(region, region)
        backing = plan.buffers.peek(ValidationPlan.IMAGE_OBS_KEY)
        assert backing is not None
        plan.reset()
        assert plan.text_unit_count == 0 and plan.image_pair_count == 0
        assert plan.image_groups == []
        plan.add_region(region, region)
        assert plan.buffers.peek(ValidationPlan.IMAGE_OBS_KEY) is backing

    def test_add_region_writes_float32_and_checks_shapes(self):
        plan = ValidationPlan()
        region = np.full((40, 40), 128.0)
        plan.add_region(region, region)
        assert plan.image_observed.dtype == PLAN_DTYPE
        assert plan.image_expected.dtype == PLAN_DTYPE
        with pytest.raises(ValueError):
            plan.add_region(region, np.full((40, 41), 128.0))

    def test_validator_reuses_plan_buffers_across_frames(self, text_model, image_model):
        vspec, machine, _browser = _render(5)
        frame = machine.sample_framebuffer().pixels
        validator = _validator(vspec, text_model, image_model, batched=True)
        validator.validate(frame)  # warm: buffers sized to the frame
        plan = validator._plan
        ids = {
            key: id(plan.buffers.peek(key))
            for key in (ValidationPlan.TEXT_KEY, ValidationPlan.IMAGE_OBS_KEY)
            if plan.buffers.peek(key) is not None
        }
        assert ids, "warm frame collected no units"
        allocations = plan.buffers.allocations
        for _ in range(2):
            result = validator.validate(frame)
            assert result.ok
        assert plan.buffers.allocations == allocations  # no growth
        for key, backing_id in ids.items():
            assert id(plan.buffers.peek(key)) == backing_id  # same buffers

    def test_retry_ring_buffer_reused_across_frames(self, text_model, image_model):
        vspec, machine, _browser = _render(3)
        frame = machine.sample_framebuffer().pixels
        shifted = np.vstack(
            [np.full((1, frame.shape[1]), vspec.background), frame[:-1]]
        )
        validator = _validator(vspec, text_model, image_model, batched=True)
        first = validator.validate(shifted)
        assert first.text_retry_rounds > 0  # the shifted frame exercises the rings
        ring = thread_pool().peek(("text-retry",))
        assert ring is not None
        validator.validate(shifted)
        assert thread_pool().peek(("text-retry",)) is ring


# ---------------------------------------------------------------------------
# Verdict parity on the pooled path
# ---------------------------------------------------------------------------


class TestPooledPathParity:
    @settings(max_examples=3, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        kind=st.sampled_from(["none", "fill", "text", "shift"]),
    )
    def test_batched_sequential_and_threaded_agree(
        self, text_model, image_model, seed, kind
    ):
        """Batched, sequential, and two concurrent batched validators on
        their own threads (each with its own thread pool) agree
        verdict-for-verdict."""
        rng = np.random.default_rng(seed)
        vspec, machine, _browser = _render(seed % 23)
        frame = _tampered_frame(machine, vspec, kind, rng)

        batched = _validator(vspec, text_model, image_model, batched=True).validate(frame)
        sequential = _validator(vspec, text_model, image_model, batched=False).validate(frame)
        with ThreadPoolExecutor(max_workers=2) as tpool:
            threaded = list(
                tpool.map(
                    lambda _i: _validator(vspec, text_model, image_model, batched=True).validate(
                        frame
                    ),
                    range(2),
                )
            )

        for other in [sequential, *threaded]:
            assert other.ok == batched.ok
            assert other.failures == batched.failures
            assert other.offset_y == batched.offset_y
            assert other.plan_text_units == batched.plan_text_units
            assert other.plan_image_pairs == batched.plan_image_pairs
