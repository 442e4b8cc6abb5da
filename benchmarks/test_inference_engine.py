"""Frozen inference engine: compiled forward vs the training forward.

PR 4's tentpole claim, measured directly: on matcher-sized batches the
frozen twin (fused float32 stages, per-shape workspace reuse, no
backward caches) must be at least 2x faster than the training
``Sequential`` path it compiled from, while producing **identical**
accept/reject decisions on a parity corpus of honest and tampered
matcher inputs.
"""

import time

import numpy as np

from benchmarks.conftest import record_metrics, record_result
from repro.nn.infer import frozen_twin
from repro.raster.fonts import font_registry
from repro.raster.stacks import stack_registry

#: Timing batch (a typical chunked plan round).
BATCH = 256

#: Median-of-k timing: robust to load spikes on shared CI machines.
TIMING_REPEATS = 9

#: The frozen path must clear this factor over the training path.
MIN_SPEEDUP = 2.0


def _median_ms(fn, repeats: int = TIMING_REPEATS) -> float:
    fn()  # warm-up: first-call workspace allocation is not steady state
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1000.0


def _tile(arr: np.ndarray, n: int) -> np.ndarray:
    """First ``n`` rows, wrapping if the corpus is smaller than ``n``."""
    reps = -(-n // arr.shape[0])
    return np.concatenate([arr] * reps, axis=0)[:n]


def _parity_corpus(kind: str):
    """Honest + tampered matcher inputs (the training-corpus generators
    produce balanced positive/negative pairs — exactly a parity corpus)."""
    from repro.nn.data import image_dataset, text_dataset

    stacks = stack_registry()[:2]
    if kind == "text":
        obs, exp, labels = text_dataset(font_registry()[:2], stacks=stacks, seed=3)
    else:
        obs, exp, labels = image_dataset(stacks=stacks, seed=5)
    return obs.astype(np.float32), exp.astype(np.float32), labels


def test_inference_engine(scale, text_model, image_model):
    rows = []
    metrics = {}
    for kind, model in (("text", text_model), ("image", image_model)):
        obs, exp, _labels = _parity_corpus(kind)

        # Decision parity on the full corpus, both engines.
        training_decisions = model.predict(obs, exp, frozen=False)
        frozen = frozen_twin(model)
        frozen_decisions = frozen.predict(obs, exp)
        assert np.array_equal(training_decisions, frozen_decisions), (
            f"{kind}: frozen decisions diverged from the training path"
        )
        prob_drift = float(
            np.max(
                np.abs(
                    model.match_probability(obs, exp, frozen=False)
                    - frozen.match_probability(obs, exp)
                )
            )
        )

        # Median-of-k timing on a fixed matcher-sized batch.
        t_obs, t_exp = _tile(obs, BATCH), _tile(exp, BATCH)
        training_ms = _median_ms(lambda: model.predict(t_obs, t_exp, frozen=False))
        frozen_ms = _median_ms(lambda: frozen.predict(t_obs, t_exp))
        speedup = training_ms / frozen_ms
        rows.append(
            {
                "kind": kind,
                "corpus": int(obs.shape[0]),
                "training_ms": training_ms,
                "frozen_ms": frozen_ms,
                "speedup": speedup,
                "prob_drift": prob_drift,
            }
        )
        metrics[kind] = {
            "batch": BATCH,
            "training_ms": round(training_ms, 3),
            "frozen_ms": round(frozen_ms, 3),
            "speedup": round(speedup, 2),
            "max_probability_drift": prob_drift,
            "decision_parity": True,
        }

    lines = [
        "Inference engine — frozen (compiled) vs training (Sequential) forward",
        "",
        f"batch size {BATCH}, median of {TIMING_REPEATS} timed runs (time.perf_counter)",
        "",
        f"{'model':<7} {'corpus':>7} {'training ms':>12} {'frozen ms':>10} "
        f"{'speedup':>8} {'max P drift':>12}",
    ]
    for r in rows:
        lines.append(
            f"{r['kind']:<7} {r['corpus']:>7} {r['training_ms']:>12.2f} "
            f"{r['frozen_ms']:>10.2f} {r['speedup']:>7.2f}x {r['prob_drift']:>12.2e}"
        )
    lines += [
        "",
        "Decisions are identical on the full honest+tampered parity corpus",
        "for both models (asserted).  Probability drift is float32 GEMM",
        "reassociation only (the frozen conv gathers its im2col columns in",
        "channel-contiguous order); margins sit ~6 orders of magnitude above it.",
    ]
    record_result("inference_engine", "\n".join(lines))
    record_metrics("inference_engine", metrics)

    for r in rows:
        assert r["speedup"] >= MIN_SPEEDUP, (
            f"{r['kind']}: frozen path only {r['speedup']:.2f}x faster "
            f"({r['training_ms']:.1f}ms vs {r['frozen_ms']:.1f}ms)"
        )


def test_workspace_reuse_steady_state(text_model):
    """Repeated same-shape batches must not allocate new workspace arrays."""
    frozen = frozen_twin(text_model)
    obs, exp, _ = _parity_corpus("text")
    obs, exp = _tile(obs, BATCH), _tile(exp, BATCH)
    frozen.predict(obs, exp)
    before = frozen.workspace_stats()
    for _ in range(5):
        frozen.predict(obs, exp)
    after = frozen.workspace_stats()

    def total_allocations(stats):
        return sum(a["allocations"] for arenas in stats.values() for a in arenas)

    assert total_allocations(after) == total_allocations(before)
