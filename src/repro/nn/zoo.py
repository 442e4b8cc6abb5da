"""Named model builders and a disk cache of trained verifiers.

Training CNNs from scratch on every test run would dominate wall-clock
time, so the zoo trains each named model once and caches its parameters
under ``$REPRO_MODEL_DIR`` (default: ``~/.cache/repro-vwitness``).  The
named variants mirror the rows of the paper's Table III:

=========  ======================================================
name       paper row
=========  ======================================================
text-ref   t1  reference multi-class character classifier
text-base  t2  base text matcher (many fonts)
text-font-<i>  t3  single-font specialized matchers
text-sans  t4  sans-serif-specialized matcher
text-serif t5  serif-specialized matcher
(t6 is ``text-sans`` with ``with_threshold(0.99)`` — same weights)
image-ref  g1  reference multi-class icon classifier
image-base g2/g3 graphics matcher (icons + natural patches)
=========  ======================================================
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.nn.data import (
    CHARSET,
    image_dataset,
    reference_image_dataset,
    reference_text_dataset,
    text_dataset,
)
from repro.nn.infer import frozen_twin
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.model import ChannelPairMatcher, MatcherModel, Sequential
from repro.nn.serialize import load_model, save_model
from repro.nn.train import train_classifier, train_matcher
from repro.raster.fonts import font_registry, sans_serif_fonts, serif_fonts
from repro.raster.stacks import stack_registry


def model_cache_dir() -> str:
    """Directory holding trained-model parameter files."""
    return os.environ.get(
        "REPRO_MODEL_DIR", os.path.join(os.path.expanduser("~"), ".cache", "repro-vwitness")
    )


# ---------------------------------------------------------------------------
# Architectures
# ---------------------------------------------------------------------------


def _conv_feature_branch(rng: np.random.Generator) -> Sequential:
    """Conv feature extractor: 32x32x1 -> 64 features."""
    return Sequential(
        [
            Conv2D(1, 8, kernel=3, pad=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(8, 16, kernel=3, pad=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(16 * 8 * 8, 64, rng=rng),
            ReLU(),
        ]
    )


def build_text_matcher(seed: int = 0, threshold: float = 0.5) -> MatcherModel:
    """Text verifier: observed glyph tile + expected character one-hot."""
    rng = np.random.default_rng(seed)
    observed = _conv_feature_branch(rng)
    expected = Sequential([Dense(len(CHARSET), 64, rng=rng), ReLU()])
    head = Sequential([Dense(128, 64, rng=rng), ReLU(), Dense(64, 1, rng=rng)])
    return MatcherModel(observed, expected, head, threshold=threshold)


def build_image_matcher(seed: int = 0, threshold: float = 0.5) -> ChannelPairMatcher:
    """Graphics verifier: observed/expected rasters as CNN input channels.

    Table II describes two feature extractions; stacking the rasters as
    channels fuses those extractions into the first convolution, which
    trains far more reliably at this model scale.
    """
    rng = np.random.default_rng(seed)
    network = Sequential(
        [
            Conv2D(2, 12, kernel=3, pad=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(12, 16, kernel=3, pad=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(16 * 8 * 8, 64, rng=rng),
            ReLU(),
            Dense(64, 1, rng=rng),
        ]
    )
    return ChannelPairMatcher(network, threshold=threshold)


def build_text_reference(seed: int = 0) -> Sequential:
    """Reference multi-class character classifier (paper's MNIST analogue)."""
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Conv2D(1, 8, kernel=3, pad=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(8, 16, kernel=3, pad=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(16 * 8 * 8, 128, rng=rng),
            ReLU(),
            Dense(128, len(CHARSET), rng=rng),
        ]
    )


def build_image_reference(seed: int = 0, num_classes: int = 10) -> Sequential:
    """Reference multi-class icon classifier (paper's CIFAR-10 analogue)."""
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Conv2D(1, 8, kernel=3, pad=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(8, 16, kernel=3, pad=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(16 * 8 * 8, 128, rng=rng),
            ReLU(),
            Dense(128, num_classes, rng=rng),
        ]
    )


# ---------------------------------------------------------------------------
# Training profiles
# ---------------------------------------------------------------------------

#: Corpus/epoch sizing.  "fast" keeps unit tests snappy; "full" is used by
#: the benchmark suite for the headline numbers.
PROFILES = {
    "fast": {"fonts": 4, "stacks": 3, "expansions": 2, "epochs": 14, "styles": ("normal",)},
    "full": {"fonts": 8, "stacks": 5, "expansions": 1, "epochs": 20, "styles": ("normal", "bold")},
}


def _profile() -> dict:
    name = os.environ.get("REPRO_MODEL_PROFILE", "fast")
    if name not in PROFILES:
        raise ValueError(f"unknown model profile {name!r}; expected one of {sorted(PROFILES)}")
    return dict(PROFILES[name], name=name)


def _cache_path(name: str) -> str:
    profile = _profile()["name"]
    return os.path.join(model_cache_dir(), f"{name}-{profile}.npz")


# ---------------------------------------------------------------------------
# Process-wide model registry
# ---------------------------------------------------------------------------

#: Memoized trained models, keyed by (model name, profile, cache dir).  The
#: disk cache already avoids *retraining* across processes; this registry
#: avoids re-*loading* (and, on a cold disk cache, re-training) within one
#: process, so a second witness or service constructed anywhere reuses the
#: exact same model objects.  The lock is held across load/train so that
#: concurrent first requests for one model build it exactly once.
_REGISTRY: dict = {}
_REGISTRY_LOCK = threading.RLock()
_REGISTRY_STATS = {"hits": 0, "loads": 0, "trains": 0}


def model_registry_stats() -> dict:
    """Snapshot of registry activity: ``hits``/``loads``/``trains``/``entries``.

    ``trains`` counts from-scratch training runs; tests assert it stays
    flat when a second service spins up against warm models.
    """
    with _REGISTRY_LOCK:
        return dict(_REGISTRY_STATS, entries=len(_REGISTRY))


def clear_model_registry() -> None:
    """Drop memoized models (tests only; the disk cache is untouched)."""
    with _REGISTRY_LOCK:
        _REGISTRY.clear()
        _REGISTRY_STATS.update(hits=0, loads=0, trains=0)


def _vend(model):
    """Attach the memoized frozen inference twin before vending.

    Freezing happens strictly post-load/post-train (weights are final),
    so every consumer of a zoo model — verifiers, ``predict``'s
    automatic dispatch — shares one compiled twin.
    Sequential reference classifiers are vended unfrozen; callers can
    :func:`repro.nn.infer.freeze` them explicitly.
    """
    if hasattr(model, "match_probability"):
        frozen_twin(model)
    return model


def _load_or_train(name: str, builder, trainer):
    key = (name, _profile()["name"], model_cache_dir())
    with _REGISTRY_LOCK:
        cached = _REGISTRY.get(key)
        if cached is not None:
            _REGISTRY_STATS["hits"] += 1
            return _vend(cached)
        path = _cache_path(name)
        model = builder()
        if os.path.exists(path):
            try:
                model = load_model(model, path)
                _REGISTRY_STATS["loads"] += 1
                _REGISTRY[key] = model
                return _vend(model)
            except ValueError:
                os.remove(path)  # stale architecture; retrain below
                model = builder()
        model = trainer(model)
        _REGISTRY_STATS["trains"] += 1
        save_model(model, path)
        _REGISTRY[key] = model
        return _vend(model)


def get_text_model(variant: str = "base") -> MatcherModel:
    """A trained text verifier.

    Variants: ``base`` (t2), ``font-<i>`` single-font (t3), ``sans`` (t4),
    ``serif`` (t5).  Apply ``.with_threshold(0.99)`` for t6.
    """
    prof = _profile()
    if variant == "base":
        fonts = font_registry()[: prof["fonts"]]
    elif variant.startswith("font-"):
        index = int(variant.split("-", 1)[1])
        registry = font_registry()
        if not 0 <= index < len(registry):
            raise ValueError(f"font index {index} out of range")
        fonts = [registry[index]]
    elif variant == "sans":
        fonts = sans_serif_fonts(max(2, prof["fonts"] // 2))
    elif variant == "serif":
        fonts = serif_fonts(max(2, prof["fonts"] // 2))
    else:
        raise ValueError(f"unknown text model variant {variant!r}")

    # Specialized variants see far fewer (font, char) combinations, so
    # they compensate with heavier augmentation and longer training.
    single = variant.startswith("font-")

    def trainer(model):
        prof_local = _profile()
        stacks = stack_registry()[: prof_local["stacks"]]
        obs, exp, labels = text_dataset(
            fonts,
            stacks=stacks,
            styles=prof_local["styles"],
            expansions=max(4, prof_local["expansions"]) if single else prof_local["expansions"],
            seed=7,
        )
        epochs = prof_local["epochs"] + (6 if single else 0)
        train_matcher(model, obs, exp, labels, epochs=epochs, seed=7)
        return model

    return _load_or_train(f"text-{variant}", lambda: build_text_matcher(seed=7), trainer)


def get_image_model() -> MatcherModel:
    """The trained graphics verifier (g2/g3 weights)."""
    prof = _profile()

    def trainer(model):
        stacks = stack_registry()[: prof["stacks"]]
        obs, exp, labels = image_dataset(stacks=stacks, seed=11)
        train_matcher(model, obs, exp, labels, epochs=max(3, prof["epochs"]), seed=11)
        return model

    return _load_or_train("image-base", lambda: build_image_matcher(seed=11), trainer)


def get_text_reference() -> Sequential:
    """The trained reference character classifier (t1)."""
    prof = _profile()

    def trainer(model):
        fonts = font_registry()[: max(2, prof["fonts"] // 2)]
        stacks = stack_registry()[: prof["stacks"]]
        x, y = reference_text_dataset(fonts, stacks=stacks, seed=13)
        train_classifier(model, x, y, epochs=max(4, prof["epochs"] + 2), seed=13)
        return model

    return _load_or_train("text-ref", lambda: build_text_reference(seed=13), trainer)


def get_image_reference() -> Sequential:
    """The trained reference icon classifier (g1)."""
    prof = _profile()

    def trainer(model):
        stacks = stack_registry()[: prof["stacks"]]
        x, y = reference_image_dataset(stacks=stacks, per_class=8, seed=17)
        train_classifier(model, x, y, epochs=max(4, prof["epochs"] + 2), seed=17)
        return model

    return _load_or_train("image-ref", lambda: build_image_reference(seed=17), trainer)
