"""Model containers: ``Sequential`` chains and the two-input ``MatcherModel``.

``MatcherModel`` is the topology both vWitness verifiers share (paper
Table II): a CNN feature extractor over the *observed* raster, a second
branch encoding the *expected* ground truth (a character one-hot for the
text model, another CNN over the expected raster for the graphics model),
and a dense head over the concatenated features producing one match logit.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.nn.layers import Layer
from repro.nn.losses import sigmoid, softmax

#: Default upper bound on the per-forward batch during inference.  Plan-level
#: batching can hand a whole frame's unit inputs to one ``predict`` call;
#: chunking bounds peak activation memory (conv im2col buffers grow linearly
#: with batch size) without changing results — forwards are per-sample.
PREDICT_CHUNK = 512


def _chunked_probability(forward, observed, expected, chunk_size) -> np.ndarray:
    """Sigmoid-of-forward over ``(observed, expected)`` in bounded chunks.

    On the training path the caller holds the inference lock: layer
    activation caches are only valid for the most recent forward, which is
    why chunks run inside one lock acquisition rather than per-chunk.  The
    frozen twins call it without a lock; their scratch is per thread and
    each chunk's forward returns a copy.
    """
    n = observed.shape[0]
    if chunk_size is None or n <= chunk_size:
        return sigmoid(forward(observed, expected)).reshape(-1)
    parts = [
        sigmoid(forward(observed[i : i + chunk_size], expected[i : i + chunk_size])).reshape(-1)
        for i in range(0, n, chunk_size)
    ]
    return np.concatenate(parts)


class Sequential(Layer):
    """A chain of layers applied in order."""

    def __init__(self, layers: list) -> None:
        if not layers:
            raise ValueError("Sequential needs at least one layer")
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def params(self) -> dict:
        out = {}
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params().items():
                out[f"{i}.{name}"] = arr
        return out

    def grads(self) -> dict:
        out = {}
        for i, layer in enumerate(self.layers):
            for name, arr in layer.grads().items():
                out[f"{i}.{name}"] = arr
        return out

    # Convenience for classifier use -------------------------------------

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.forward(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x).argmax(axis=1)


class MatcherModel:
    """Two-input binary matcher (the vWitness verifier topology).

    Args:
        observed_branch: feature extractor over the observed raster input.
        expected_branch: encoder of the expected ground truth (one-hot for
            text, raster CNN for graphics).
        head: dense layers mapping concatenated features to one logit.
        threshold: detection threshold on the match probability; the paper
            hardens models by raising this to 0.99 (Table III row t6).
    """

    def __init__(
        self,
        observed_branch: Sequential,
        expected_branch: Sequential,
        head: Sequential,
        threshold: float = 0.5,
    ) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0,1), got {threshold}")
        self.observed_branch = observed_branch
        self.expected_branch = expected_branch
        self.head = head
        self.threshold = threshold
        self._obs_features: np.ndarray | None = None
        self._exp_features: np.ndarray | None = None
        # Layers cache forward activations for backward, so a forward pass
        # mutates shared state; concurrent inference on one (possibly
        # zoo-memoized) model must serialize through this lock.
        self.infer_lock = threading.Lock()

    # -- forward/backward --------------------------------------------------

    def forward(self, observed: np.ndarray, expected: np.ndarray) -> np.ndarray:
        """Match logits ``(N, 1)`` for observed/expected input pairs."""
        fo = self.observed_branch.forward(observed)
        fe = self.expected_branch.forward(expected)
        if fo.shape[0] != fe.shape[0]:
            raise ValueError(f"batch mismatch: {fo.shape[0]} vs {fe.shape[0]}")
        self._obs_features = fo  # witness-lint: allow[lock-guard] -- caller-holds-lock protocol: every inference entry point serializes on infer_lock
        self._exp_features = fe  # witness-lint: allow[lock-guard] -- caller-holds-lock protocol: every inference entry point serializes on infer_lock
        return self.head.forward(np.concatenate([fo, fe], axis=1))

    def backward(self, grad_logits: np.ndarray) -> tuple:
        """Backprop to both inputs; returns ``(d_observed, d_expected)``."""
        if self._obs_features is None or self._exp_features is None:
            raise RuntimeError("backward called before forward")
        grad_cat = self.head.backward(grad_logits)
        no = self._obs_features.shape[1]
        d_obs = self.observed_branch.backward(grad_cat[:, :no])
        d_exp = self.expected_branch.backward(grad_cat[:, no:])
        return d_obs, d_exp

    # -- inference -----------------------------------------------------------

    def _frozen_dispatch(self, frozen: bool | None):
        """The frozen twin to route inference through, or ``None``.

        ``frozen=None`` (the default) uses the memoized twin if one has
        been attached (the zoo attaches one to every trained model);
        ``True`` compiles one on demand; ``False`` forces the training
        ``Sequential`` path — the knob benchmarks A/B against.
        """
        if frozen is None:
            return getattr(self, "_frozen_twin", None)
        if frozen:
            from repro.nn.infer import frozen_twin

            return frozen_twin(self)
        return None

    def match_probability(
        self,
        observed: np.ndarray,
        expected: np.ndarray,
        chunk_size: int | None = PREDICT_CHUNK,
        frozen: bool | None = None,
    ) -> np.ndarray:
        """P(observed is a benign rendering of expected), shape ``(N,)``.

        Batches larger than ``chunk_size`` run as successive forwards under
        one lock acquisition; ``chunk_size=None`` disables chunking.  When
        a frozen twin is attached (see ``frozen``), inference runs on its
        fused, workspace-reusing forward — lock-free, since frozen
        forwards keep no shared mutable state.
        """
        twin = self._frozen_dispatch(frozen)
        if twin is not None:
            # Threshold views share branches but not thresholds; the twin
            # only matters for its forward here, so probability routing is
            # always safe.
            return twin.match_probability(observed, expected, chunk_size)
        with self.infer_lock:
            return _chunked_probability(self.forward, observed, expected, chunk_size)

    def predict(
        self,
        observed: np.ndarray,
        expected: np.ndarray,
        chunk_size: int | None = PREDICT_CHUNK,
        frozen: bool | None = None,
    ) -> np.ndarray:
        """Boolean match decision at the configured threshold."""
        return self.match_probability(observed, expected, chunk_size, frozen) >= self.threshold

    def with_threshold(self, threshold: float) -> "MatcherModel":
        """A view of this model with a different detection threshold.

        Shares parameters with the original — raising the threshold is a
        pure inference-time hardening (paper §V-B "High Detection
        Threshold").
        """
        clone = MatcherModel(
            self.observed_branch, self.expected_branch, self.head, threshold=threshold
        )
        clone.infer_lock = self.infer_lock  # shared branches, shared lock
        twin = getattr(self, "_frozen_twin", None)
        if twin is not None:
            # Inherit the compiled twin (shared nets and workspaces) at the new
            # threshold so threshold hardening keeps the frozen engine.
            clone._frozen_twin = twin.with_threshold(threshold)
        return clone

    # -- parameters ------------------------------------------------------------

    def params(self) -> dict:
        out = {}
        for prefix, part in (
            ("obs", self.observed_branch),
            ("exp", self.expected_branch),
            ("head", self.head),
        ):
            for name, arr in part.params().items():
                out[f"{prefix}.{name}"] = arr
        return out

    def grads(self) -> dict:
        out = {}
        for prefix, part in (
            ("obs", self.observed_branch),
            ("exp", self.expected_branch),
            ("head", self.head),
        ):
            for name, arr in part.grads().items():
                out[f"{prefix}.{name}"] = arr
        return out

    @property
    def num_params(self) -> int:
        return int(sum(p.size for p in self.params().values()))


class ChannelPairMatcher:
    """Binary matcher over channel-stacked (observed, expected) rasters.

    The graphics verifier compares two same-shape rasters.  Feeding them
    as the two input channels of one CNN lets the first convolution see
    both simultaneously — per-pixel comparison becomes a linear filter,
    so "is this a benign variation of that?" is learnable with very little
    capacity.  The interface mirrors :class:`MatcherModel`, including the
    input gradient needed by adversarial attacks.
    """

    def __init__(self, network: Sequential, threshold: float = 0.5) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0,1), got {threshold}")
        self.network = network
        self.threshold = threshold
        self.infer_lock = threading.Lock()

    def forward(self, observed: np.ndarray, expected: np.ndarray) -> np.ndarray:
        if observed.shape != expected.shape:
            raise ValueError(f"raster shapes differ: {observed.shape} vs {expected.shape}")
        if observed.ndim != 4 or observed.shape[1] != 1:
            raise ValueError(f"expected (N, 1, H, W) rasters, got {observed.shape}")
        stacked = np.concatenate([observed, expected], axis=1)
        return self.network.forward(stacked)

    def backward(self, grad_logits: np.ndarray) -> tuple:
        d_stacked = self.network.backward(grad_logits)
        return d_stacked[:, :1], d_stacked[:, 1:]

    _frozen_dispatch = MatcherModel._frozen_dispatch

    def match_probability(
        self,
        observed: np.ndarray,
        expected: np.ndarray,
        chunk_size: int | None = PREDICT_CHUNK,
        frozen: bool | None = None,
    ) -> np.ndarray:
        twin = self._frozen_dispatch(frozen)
        if twin is not None:
            return twin.match_probability(observed, expected, chunk_size)
        with self.infer_lock:
            return _chunked_probability(self.forward, observed, expected, chunk_size)

    def predict(
        self,
        observed: np.ndarray,
        expected: np.ndarray,
        chunk_size: int | None = PREDICT_CHUNK,
        frozen: bool | None = None,
    ) -> np.ndarray:
        return self.match_probability(observed, expected, chunk_size, frozen) >= self.threshold

    def with_threshold(self, threshold: float) -> "ChannelPairMatcher":
        """A parameter-sharing view with a different detection threshold."""
        clone = ChannelPairMatcher(self.network, threshold=threshold)
        clone.infer_lock = self.infer_lock  # shared network, shared lock
        twin = getattr(self, "_frozen_twin", None)
        if twin is not None:
            clone._frozen_twin = twin.with_threshold(threshold)
        return clone

    def params(self) -> dict:
        return self.network.params()

    def grads(self) -> dict:
        return self.network.grads()

    @property
    def num_params(self) -> int:
        return int(sum(p.size for p in self.params().values()))
