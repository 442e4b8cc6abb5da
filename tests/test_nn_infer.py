"""The frozen inference engine: parity, workspaces, lifecycle.

Covers the PR-4 tentpole guarantees:

* decision parity between the frozen and training forward paths, both at
  the model level (randomized honest/tampered matcher inputs and the
  full honest+tampered training corpora through trained models) and at
  the verifier level (the frozen verifiers'
  verdicts on frame-style unit inputs vs the training forward
  ``model.predict(..., frozen=False)`` on the same rows);
* workspaces: one grow-only workspace per net and thread whose prefix
  views give a freshly frozen twin's logits (smaller batches after the
  largest allocate nothing), thread confinement (use from any other
  thread raises), release with a finished thread;
* compile-time constant folding of affine chains;
* serialize/zoo agreement on when freezing happens.
"""

from __future__ import annotations

import gc
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.nn.data import CHAR_TO_INDEX, CHARSET, collapse_char
from repro.nn.infer import (
    FrozenMatcher,
    FrozenNet,
    FrozenPairMatcher,
    Workspace,
    freeze,
    frozen_twin,
    invalidate_frozen,
    predict_fn,
)
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.model import Sequential
from repro.nn.serialize import load_model, save_model
from repro.nn.zoo import build_image_matcher, build_text_matcher, build_text_reference


def _rand_text_inputs(rng, n):
    obs = rng.random((n, 1, 32, 32), dtype=np.float32)
    exp = rng.random((n, len(CHARSET))).astype(np.float32)
    return obs, exp


def _rand_image_inputs(rng, n):
    return (
        rng.random((n, 1, 32, 32), dtype=np.float32),
        rng.random((n, 1, 32, 32), dtype=np.float32),
    )


def _unit_rows(tiles) -> np.ndarray:
    """``(N, 1, 32, 32)`` model rows from 0..255 tiles, as the verifiers
    normalize them."""
    return (np.stack(tiles).astype(np.float32) / 255.0)[:, None]


def _training_text_verdicts(model, tiles, chars) -> np.ndarray:
    """The training forward's verdicts on the rows a text verifier feeds."""
    exp = np.zeros((len(chars), len(CHAR_TO_INDEX)), dtype=np.float32)
    for row, char in enumerate(chars):
        exp[row, CHAR_TO_INDEX[collapse_char(char)]] = 1.0
    return model.predict(_unit_rows(tiles), exp, frozen=False)


def _training_image_verdicts(model, pairs) -> np.ndarray:
    """The training forward's verdicts on the rows an image verifier feeds."""
    observed = _unit_rows([o for o, _e in pairs])
    expected = _unit_rows([e for _o, e in pairs])
    return model.predict(observed, expected, frozen=False)


class TestForwardParity:
    """Frozen logits match training logits to float32 rounding; decisions
    on trained models are identical (margins dwarf the drift)."""

    def test_text_matcher_logits(self):
        model = build_text_matcher(seed=7)
        frozen = freeze(model)
        obs, exp = _rand_text_inputs(np.random.default_rng(0), 17)
        ref = model.forward(obs, exp)
        got = frozen.forward(obs, exp)
        assert got.dtype == np.float32
        assert np.allclose(ref, got, rtol=1e-4, atol=1e-5)

    def test_image_matcher_logits(self):
        model = build_image_matcher(seed=11)
        frozen = freeze(model)
        obs, exp = _rand_image_inputs(np.random.default_rng(1), 13)
        assert np.allclose(model.forward(obs, exp), frozen.forward(obs, exp), rtol=1e-4, atol=1e-5)

    def test_classifier_sequential(self):
        model = build_text_reference(seed=13)
        frozen = freeze(model)
        x = np.random.default_rng(2).random((9, 1, 32, 32), dtype=np.float32)
        assert np.allclose(model.forward(x), frozen.forward(x), rtol=1e-4, atol=1e-5)
        assert np.array_equal(model.predict(x), frozen.predict(x))

    def test_dense_only_path_is_bit_identical(self):
        # No conv stages -> no column reordering -> bit-for-bit equality.
        rng = np.random.default_rng(3)
        seq = Sequential(
            [Dense(20, 16, rng=rng), ReLU(), Dense(16, 3, rng=rng)]
        )
        x = np.random.default_rng(4).random((11, 20), dtype=np.float32)
        assert np.array_equal(seq.forward(x), freeze(seq).forward(x))

    def test_chunked_match_probability_consistent(self):
        model = build_text_matcher(seed=7)
        frozen = freeze(model)
        obs, exp = _rand_text_inputs(np.random.default_rng(5), 23)
        full = frozen.match_probability(obs, exp, chunk_size=None)
        chunked = frozen.match_probability(obs, exp, chunk_size=7)
        # BLAS blocking differs with the GEMM's row count, so float32
        # probabilities may differ in the last ulps across chunkings;
        # decisions do not.
        assert np.allclose(full, chunked, rtol=1e-5, atol=1e-6)
        assert np.array_equal(full >= frozen.threshold, chunked >= frozen.threshold)

    def test_empty_batch(self):
        frozen = freeze(build_text_matcher(seed=7))
        obs, exp = _rand_text_inputs(np.random.default_rng(6), 0)
        assert frozen.predict(obs, exp).shape == (0,)

    def test_threshold_views(self):
        frozen = freeze(build_text_matcher(seed=7))
        hard = frozen.with_threshold(0.99)
        assert hard.threshold == 0.99
        assert hard.observed_net is frozen.observed_net
        with pytest.raises(ValueError):
            frozen.with_threshold(1.5)

    def test_input_validation(self):
        frozen = freeze(build_image_matcher(seed=11))
        good = np.zeros((2, 1, 32, 32), np.float32)
        with pytest.raises(ValueError):
            frozen.forward(good, np.zeros((2, 1, 16, 16), np.float32))
        with pytest.raises(ValueError):
            frozen.forward(np.zeros((2, 3, 32, 32), np.float32), np.zeros((2, 3, 32, 32), np.float32))

    def test_freeze_rejects_unknown(self):
        class Weird:
            pass

        with pytest.raises(TypeError, match="cannot freeze"):
            freeze(Weird())


class TestDecisionParityProperty:
    """Randomized honest/tampered frames through both engine paths."""

    def test_verifier_verdicts_identical(self, text_model, image_model):
        """Property: for randomized honest and tampered unit inputs, the
        frozen verifiers return the training forward's verdict for every
        unit, across many seeds."""
        from repro.core.verifiers import ImageVerifier, TextVerifier
        from repro.nn.data import image_dataset, text_dataset
        from repro.raster.fonts import font_registry
        from repro.raster.stacks import stack_registry

        stacks = stack_registry()[:2]
        obs, exp, _ = text_dataset(font_registry()[:2], stacks=stacks, seed=21)
        rng = np.random.default_rng(21)
        for trial in range(6):
            pick = rng.choice(obs.shape[0], size=40, replace=False)
            tiles = [np.asarray(obs[i, 0] * 255.0) for i in pick]
            # Tamper a random half of the tiles with pixel noise.
            tampered = rng.random(len(tiles)) < 0.5
            for j, is_tampered in enumerate(tampered):
                if is_tampered:
                    noise = rng.normal(0, 90, tiles[j].shape)
                    tiles[j] = np.clip(tiles[j] + noise, 0, 255)
            chars = [CHARSET[int(i) % len(CHARSET)] for i in pick]
            frozen_v = TextVerifier(text_model)
            assert np.array_equal(
                frozen_v.verify_tiles(tiles, chars),
                _training_text_verdicts(text_model, tiles, chars),
            ), f"text verdicts diverged on trial {trial}"

        obs_i, exp_i, _ = image_dataset(stacks=stacks, seed=22)
        for trial in range(4):
            pick = rng.choice(obs_i.shape[0], size=24, replace=False)
            pairs = [
                (np.asarray(obs_i[i, 0] * 255.0), np.asarray(exp_i[i, 0] * 255.0))
                for i in pick
            ]
            frozen_v = ImageVerifier(image_model)
            assert np.array_equal(
                frozen_v.verify_pairs([o for o, _e in pairs], [e for _o, e in pairs]),
                _training_image_verdicts(image_model, pairs),
            ), f"image verdicts diverged on trial {trial}"

    def test_parity_corpus_decisions_identical(self, text_model, image_model):
        """The full honest+tampered training corpora (balanced positive
        and negative pairs): the frozen twin decides every row exactly as
        the training forward does."""
        from repro.nn.data import image_dataset, text_dataset
        from repro.raster.fonts import font_registry
        from repro.raster.stacks import stack_registry

        stacks = stack_registry()[:2]
        corpora = (
            (text_model, text_dataset(font_registry()[:2], stacks=stacks, seed=3)),
            (image_model, image_dataset(stacks=stacks, seed=5)),
        )
        for model, (obs, exp, _labels) in corpora:
            obs, exp = obs.astype(np.float32), exp.astype(np.float32)
            assert np.array_equal(
                frozen_twin(model).predict(obs, exp), model.predict(obs, exp, frozen=False)
            )

    def test_sequential_mode_verdicts_identical(self, text_model):
        from repro.core.verifiers import TextVerifier
        from repro.nn.data import text_dataset
        from repro.raster.fonts import font_registry

        obs, _exp, _ = text_dataset(font_registry()[:1], seed=23)
        tiles = [np.asarray(obs[i, 0] * 255.0) for i in range(12)]
        chars = [CHARSET[i % len(CHARSET)] for i in range(12)]
        frozen_v = TextVerifier(text_model, chunk_size=1)
        assert np.array_equal(
            frozen_v.verify_tiles(tiles, chars),
            _training_text_verdicts(text_model, tiles, chars),
        )

    def test_first_frame_plan_verdicts_match_training(self, text_model, image_model):
        """Every unit of a real first frame's validation plan: the frozen
        verifiers' verdicts equal the training forward's on the same rows."""
        import copy

        from repro.core.display import DisplayValidator
        from repro.core.verifiers import ImageVerifier, TextVerifier
        from repro.datasets.forms import jotform_page
        from repro.server.generate import build_vspec
        from repro.web.browser import Browser
        from repro.web.hypervisor import Machine

        page = jotform_page(2)  # a form with both text and image entries
        vspec = build_vspec(copy.deepcopy(page), "jf-2")
        machine = Machine(640, min(600, vspec.height))
        Browser(machine, copy.deepcopy(page)).paint()
        text_v = TextVerifier(text_model)
        image_v = ImageVerifier(image_model)
        plans = []
        execute = image_v.execute_plan
        image_v.execute_plan = lambda plan: plans.append(plan) or execute(plan)
        DisplayValidator(vspec, text_v, image_v).validate(machine.sample_framebuffer().pixels)
        (plan,) = plans
        assert plan.text_unit_count > 0 and plan.image_pair_count > 0
        tiles = list(plan.text_tiles)
        assert np.array_equal(
            text_v.verify_tiles(tiles, plan.text_chars),
            _training_text_verdicts(text_model, tiles, plan.text_chars),
        )
        pairs = list(zip(plan.image_observed, plan.image_expected))
        assert np.array_equal(
            image_v.verify_pairs(plan.image_observed, plan.image_expected),
            _training_image_verdicts(image_model, pairs),
        )


def _conv_net(seed: int) -> Sequential:
    """A conv stack with no dense head: accepts any even spatial size."""
    rng = np.random.default_rng(seed)
    return Sequential(
        [Conv2D(1, 4, rng=rng), ReLU(), MaxPool2D(2), Conv2D(4, 3, rng=rng), Flatten()]
    )


def _matcher_allocations(frozen: FrozenMatcher) -> int:
    return sum(
        net.workspace().allocations
        for net in (frozen.observed_net, frozen.expected_net, frozen.head_net)
    )


class TestWorkspaceArena:
    """One grow-only :class:`Workspace` per frozen net and thread."""

    def test_repeated_shape_allocates_once(self):
        frozen = freeze(build_text_matcher(seed=7))
        rng = np.random.default_rng(7)
        frozen.predict(*_rand_text_inputs(rng, 32))
        first = _matcher_allocations(frozen)
        assert first > 0
        for _ in range(4):
            frozen.predict(*_rand_text_inputs(rng, 32))
        assert _matcher_allocations(frozen) == first, "repeated-shape forwards must not allocate"

    def test_grow_only_matches_fresh_twin(self):
        """Prefix views of kept buffers give a freshly frozen twin's logits,
        and once the largest batch has run, smaller ones allocate nothing."""
        text = build_text_matcher(seed=7)
        image = build_image_matcher(seed=7)
        frozen_text, frozen_image = freeze(text), freeze(image)
        rng = np.random.default_rng(8)
        grown = None
        for n in (9, 4, 9, 512, 1, 300, 512):
            obs, exp = _rand_text_inputs(rng, n)
            assert np.array_equal(frozen_text.forward(obs, exp), freeze(text).forward(obs, exp))
            pair = _rand_image_inputs(rng, n)
            assert np.array_equal(frozen_image.forward(*pair), freeze(image).forward(*pair))
            allocations = (
                _matcher_allocations(frozen_text),
                frozen_image.net.workspace().allocations,
            )
            if grown is not None:
                assert allocations == grown, f"batch {n} allocated after batch 512"
            elif n == 512:
                grown = allocations

        # A new per-sample shape replaces the kept buffer; the zero pad
        # ring of the new buffer must hold for every later prefix view.
        seq = _conv_net(9)
        net = freeze(seq)
        for n, side in ((6, 32), (2, 32), (6, 16), (3, 16), (6, 32), (1, 32)):
            x = rng.random((n, 1, side, side), dtype=np.float32)
            assert np.array_equal(net.forward(x), freeze(seq).forward(x))

    def test_thread_confinement(self):
        """Concurrent forwards share no workspaces and stay correct."""
        model = build_text_matcher(seed=7)
        frozen = freeze(model)
        rng = np.random.default_rng(10)
        obs, exp = _rand_text_inputs(rng, 20)
        expected = model.predict(obs, exp, frozen=False)
        barrier = threading.Barrier(4)

        def worker(_):
            barrier.wait()
            out = []
            for _ in range(25):
                out.append(frozen.predict(obs, exp))
            return out, frozen.observed_net.workspace(), threading.get_ident()

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(worker, range(4)))
        for per_thread, _ws, _ident in results:
            for verdicts in per_thread:
                assert np.array_equal(verdicts, expected)
        # One workspace per participating thread, owned by that thread.
        workspaces = [ws for _, ws, _ in results]
        assert len({id(ws) for ws in workspaces}) == 4
        assert all(ws.owner_ident == ident for _, ws, ident in results)

    def test_arena_is_pinned_to_its_thread(self):
        net = freeze(_conv_net(11))
        box = {}

        def create():
            box["ws"] = net.workspace()
            box["ident"] = threading.get_ident()

        t = threading.Thread(target=create)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        assert box["ws"].owner_ident == box["ident"]
        assert box["ident"] != threading.get_ident()
        assert net.workspace() is not box["ws"]

    def test_foreign_checkout_raises(self):
        box = {}
        t = threading.Thread(target=lambda: box.setdefault("ws", Workspace()))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        with pytest.raises(RuntimeError, match="thread-confined"):
            box["ws"].buf("pad", (1, 8, 8, 1))
        assert box["ws"].allocations == 0

    def test_same_thread_checkout_works(self):
        ws = Workspace()  # owned by its creator
        assert ws.owner_ident == threading.get_ident()
        big = ws.buf("k", (4, 3))
        small = ws.buf("k", (2, 3))
        assert small.shape == (2, 3) and np.shares_memory(small, big)
        assert ws.allocations == 1
        assert ws.buf("k", (8, 3)).shape == (8, 3)  # larger batch: grows
        assert ws.buf("k", (2, 5)).shape == (2, 5)  # new per-sample shape
        assert ws.allocations == 3


class TestConstantFolding:
    def test_dense_chain_folds_to_one_stage(self):
        rng = np.random.default_rng(12)
        seq = Sequential(
            [Dense(12, 10, rng=rng), Dense(10, 8, rng=rng), Dense(8, 2, rng=rng)]
        )
        frozen = freeze(seq)
        assert len(frozen.stages) == 1
        x = np.random.default_rng(13).random((7, 12), dtype=np.float32)
        assert np.allclose(seq.forward(x), frozen.forward(x), rtol=1e-5, atol=1e-6)

    def test_relu_breaks_the_chain(self):
        rng = np.random.default_rng(14)
        seq = Sequential([Dense(6, 5, rng=rng), ReLU(), Dense(5, 3, rng=rng)])
        frozen = freeze(seq)
        assert len(frozen.stages) == 2  # fused Dense+ReLU, then Dense

    def test_nested_sequentials_get_unique_stage_indices(self):
        # A shared counter must thread through the recursion: duplicated
        # indices alias workspace buffers (wrong shapes or, worse,
        # silently corrupted activations).
        rng = np.random.default_rng(30)
        net = Sequential(
            [
                Sequential(
                    [Sequential([Conv2D(1, 4, rng=rng), ReLU(), MaxPool2D(2), Flatten()])]
                ),
                Dense(4 * 16 * 16, 8, rng=rng),
                ReLU(),
            ]
        )
        frozen = freeze(net)
        indices = [stage.index for stage in frozen.stages]
        assert len(indices) == len(set(indices))
        x = np.random.default_rng(31).random((3, 1, 32, 32), dtype=np.float32)
        assert np.allclose(net.forward(x), frozen.forward(x), rtol=1e-4, atol=1e-5)

    def test_conv_relu_fuses(self):
        rng = np.random.default_rng(15)
        seq = Sequential(
            [Conv2D(1, 4, rng=rng), ReLU(), MaxPool2D(2), Flatten(), Dense(4 * 16 * 16, 2, rng=rng)]
        )
        frozen = freeze(seq)
        assert len(frozen.stages) == 4  # conv+relu, pool, flatten, dense
        x = np.random.default_rng(16).random((3, 1, 32, 32), dtype=np.float32)
        assert np.allclose(seq.forward(x), frozen.forward(x), rtol=1e-4, atol=1e-5)


class TestFreezeLifecycle:
    def test_frozen_twin_is_memoized(self):
        model = build_text_matcher(seed=7)
        assert frozen_twin(model) is frozen_twin(model)
        invalidate_frozen(model)
        # a fresh twin after invalidation, still functional
        obs, exp = _rand_text_inputs(np.random.default_rng(17), 3)
        assert frozen_twin(model).predict(obs, exp).shape == (3,)

    def test_model_predict_dispatches_to_twin(self):
        model = build_text_matcher(seed=7)
        obs, exp = _rand_text_inputs(np.random.default_rng(18), 5)
        baseline = model.predict(obs, exp)  # no twin yet: training path
        frozen_twin(model)
        assert np.array_equal(model.predict(obs, exp), baseline)
        assert np.array_equal(model.predict(obs, exp, frozen=False), baseline)

    def test_with_threshold_inherits_twin(self):
        model = build_text_matcher(seed=7)
        base_twin = frozen_twin(model)
        hard = model.with_threshold(0.99)
        hard_twin = hard.__dict__.get("_frozen_twin")
        assert hard_twin is not None and hard_twin.threshold == 0.99
        # Shared compiled nets, not a recompile.
        assert hard_twin.observed_net is base_twin.observed_net
        obs, exp = _rand_text_inputs(np.random.default_rng(24), 5)
        assert np.array_equal(
            hard.predict(obs, exp), hard.predict(obs, exp, frozen=False)
        )

    def test_dead_thread_arenas_are_pruned(self):
        """A finished thread's workspace is released with the thread."""
        frozen = freeze(build_text_matcher(seed=7))
        obs, exp = _rand_text_inputs(np.random.default_rng(25), 3)
        refs = []

        def run():
            frozen.predict(obs, exp)
            refs.append(weakref.ref(frozen.observed_net.workspace()))

        for _ in range(3):
            t = threading.Thread(target=run)
            t.start()
            t.join()
        gc.collect()
        assert len(refs) == 3
        assert all(ref() is None for ref in refs)
        assert frozen.predict(obs, exp).shape == (3,)

    def test_zoo_models_carry_twins(self, text_model, image_model):
        assert "_frozen_twin" in text_model.__dict__
        assert "_frozen_twin" in image_model.__dict__
        assert isinstance(text_model.__dict__["_frozen_twin"], FrozenMatcher)
        assert isinstance(image_model.__dict__["_frozen_twin"], FrozenPairMatcher)

    def test_predict_fn_is_the_frozen_twin(self, text_model):
        assert predict_fn(text_model) == frozen_twin(text_model).predict
        obs, exp = _rand_text_inputs(np.random.default_rng(19), 4)
        assert np.array_equal(
            predict_fn(text_model)(obs, exp),
            text_model.predict(obs, exp, frozen=False),
        )

        class Duck:
            def predict(self, observed, expected, chunk_size=None):
                return np.ones(len(observed), dtype=bool)

        duck = Duck()
        assert predict_fn(duck) == duck.predict  # not compilable: its own predict

    def test_serialize_refuses_frozen_and_invalidates_on_load(self, tmp_path):
        model = build_text_matcher(seed=7)
        frozen = freeze(model)
        path = str(tmp_path / "m.npz")
        with pytest.raises(TypeError, match="frozen"):
            save_model(frozen, path)
        with pytest.raises(TypeError, match="frozen"):
            load_model(frozen, path)

        save_model(model, path)
        stale = frozen_twin(model)
        # Mutate weights in place (as an optimizer step would)...
        model.head.layers[-1].b += 5.0
        # ...then reload: the twin must be dropped and rebuilt fresh.
        load_model(model, path)
        assert "_frozen_twin" not in model.__dict__
        rebuilt = frozen_twin(model)
        assert rebuilt is not stale
        obs, exp = _rand_text_inputs(np.random.default_rng(20), 6)
        assert np.allclose(
            rebuilt.forward(obs, exp), model.forward(obs, exp), rtol=1e-4, atol=1e-5
        )
