"""Frozen inference engine: trained matchers compiled into fused forward paths.

Training and inference want opposite things from a forward pass.  The
``Sequential`` path keeps every layer separate and caches every
activation because backward needs them; inference reads none of that, yet
(before this module) every verifier forward still paid for it — fresh
im2col buffers per call, backward caches nobody consumes, non-contiguous
transposed conv outputs that make every downstream op crawl.

:func:`freeze` compiles a trained model into an inference-only
executable:

* **No grad bookkeeping.**  Compiled stages hold weights only; nothing is
  cached for a backward pass that will never run.
* **Fused stages.**  ``Conv2D`` absorbs its bias add and a following
  ``ReLU`` into one stage (GEMM into a preallocated buffer, bias and
  rectify in place); ``Dense`` likewise.  Chains of ``Dense`` layers with
  no activation between them are constant-folded into a single affine
  stage at compile time.
* **float32 end-to-end.**  All weights are cast once to contiguous
  ``float32``; inputs are cast on entry; every intermediate buffer is
  ``float32``.  No silent float64 upcast anywhere on the path.
* **Channel-last execution.**  Internally activations flow NHWC, so each
  conv GEMM's output *is* the next stage's contiguous input — the
  training path's transposed views (and the cache-hostile copies they
  force downstream) disappear.  Values are bit-identical: layout is an
  execution detail, and every rearrangement is an exact copy or an exact
  ``max``.
* **One grow-only workspace per net and thread.**  All scratch (pad
  rings, im2col columns, GEMM outputs, pool temporaries) lives in the
  net's :class:`Workspace` for the calling thread.  A buffer is kept per
  key and serves any batch up to the largest seen as a prefix view, so
  once a thread has forwarded its largest chunk, later forwards of any
  smaller batch allocate nothing.  Workspaces are thread-confined, so
  frozen forwards need no inference lock at all.

Parity guarantee
----------------

Dense stages, pooling, and every copy are exact, so a dense-only path
reproduces training logits bit for bit.  Conv stages build their column
matrix in ``(k, k, c)`` order (channel-contiguous gathers are ~5x faster
than the training path's ``(c, k, k)`` order) with the weight rows
permuted to match: the GEMM sums the *same* products in a different
order, so conv logits agree with the training path to float32 rounding
(~1e-6 relative) rather than bit for bit — the same magnitude of drift a
BLAS thread-count change produces.  Accept/reject *decisions* are
identical on the parity corpus (asserted by the property tests in
``tests/test_nn_infer.py``); trained matchers' margins sit orders of
magnitude above the drift.  Constant-folding an actual
``Dense``-``Dense`` chain likewise reassociates float arithmetic and is
*decision*-preserving; no shipped model contains such a chain.

Freezing snapshots weights: it happens **post-load** (the zoo attaches a
twin after :func:`~repro.nn.serialize.load_model` / training finishes),
and anything that mutates parameters in place afterwards must call
:func:`invalidate_frozen` (``load_model`` does) or the twin goes stale.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from repro.analysis import hot_path
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.losses import softmax
from repro.nn.model import (
    PREDICT_CHUNK,
    ChannelPairMatcher,
    MatcherModel,
    Sequential,
    _chunked_probability,
)
from repro.nn.tensorops import conv_output_size

#: The one and only dtype of a frozen forward.
INFER_DTYPE = np.float32


class Workspace:
    """Grow-only scratch buffers of one frozen net on one thread.

    Each key keeps one buffer.  A request whose per-sample shape
    (``shape[1:]``) matches gets a leading-axis prefix view of it when it
    is large enough; otherwise a new buffer of exactly ``shape`` replaces
    it.  The largest batch a thread has forwarded therefore serves every
    smaller one without allocating.

    A workspace belongs to the thread that created it: using it from any
    other thread raises, rather than hand out buffers the owner may be
    writing.
    """

    __slots__ = ("_bufs", "allocations", "thread", "owner_ident", "__weakref__")

    def __init__(self) -> None:
        self._bufs: dict = {}
        self.allocations = 0
        self.thread = threading.current_thread().name
        self.owner_ident = threading.get_ident()

    def buf(self, key, shape: tuple) -> np.ndarray:
        """The scratch array registered under ``key``, viewed at ``shape``.

        Buffers are zeroed at allocation only: pad-ring buffers rely on
        their border staying zero across calls (the interior is fully
        overwritten every call), which saves a full memset per conv.  A
        prefix view keeps each sample's layout, so the border of every
        row persists too.  The last view per key is kept with its shape,
        so a repeated request (every chunk of a sequential plan) costs
        one tuple compare instead of a fresh slice.
        """
        if threading.get_ident() != self.owner_ident:
            raise RuntimeError(
                f"workspace of thread {self.thread!r} used from "
                f"{threading.current_thread().name!r}: workspaces are thread-confined"
            )
        entry = self._bufs.get(key)
        if entry is not None and entry[1] == shape:
            return entry[2]  # the view handed out last time
        b = None if entry is None else entry[0]
        if b is None or b.shape[1:] != shape[1:] or b.shape[0] < shape[0]:
            b = np.zeros(shape, dtype=INFER_DTYPE)
            self.allocations += 1
        view = b[: shape[0]]
        self._bufs[key] = (b, shape, view)
        return view


# ---------------------------------------------------------------------------
# Compiled stages (all operate on float32, channel-last activations)
# ---------------------------------------------------------------------------


def _f32(arr: np.ndarray) -> np.ndarray:
    """One-time cast to contiguous float32 (no copy when already there)."""
    return np.ascontiguousarray(arr, dtype=INFER_DTYPE)


class _ConvStage:
    """Fused conv + bias + optional ReLU over NHWC input via im2col GEMM.

    The column matrix is gathered in ``(n, h2, w2, k, k, c)`` order —
    channel-contiguous inner runs, ~5x faster to build than the training
    path's ``(c, k, k)`` ordering — with the weight rows permuted once at
    compile time to match.  The GEMM therefore sums the same products in
    a different order: logits match the training conv to float32
    rounding, decisions exactly (see the module parity note).
    """

    __slots__ = ("w", "b", "kernel", "stride", "pad", "relu", "in_channels", "index")

    def __init__(self, layer: Conv2D, relu: bool, index: int) -> None:
        k, c, f = layer.kernel, layer.in_channels, layer.out_channels
        # (c*k*k, f) rows reordered from (c, k, k) to (k, k, c).
        self.w = _f32(
            layer.w.reshape(c, k, k, f).transpose(1, 2, 0, 3).reshape(c * k * k, f)
        )
        self.b = _f32(layer.b)
        self.kernel = k
        self.stride = layer.stride
        self.pad = layer.pad
        self.relu = relu
        self.in_channels = c
        self.index = index

    @hot_path
    def run(self, x: np.ndarray, ws: Workspace) -> np.ndarray:
        n, h, w, c = x.shape
        if c != self.in_channels:
            raise ValueError(f"Conv stage expected {self.in_channels} channels, got {c}")
        k, s, p = self.kernel, self.stride, self.pad
        h2 = conv_output_size(h, k, s, p)
        w2 = conv_output_size(w, k, s, p)
        if p:
            # Interior fully overwritten; the zero border persists from
            # the buffer's one-time allocation (see Workspace.buf).
            xp = ws.buf((self.index, "pad"), (n, h + 2 * p, w + 2 * p, c))
            xp[:, p : p + h, p : p + w, :] = x
        else:
            xp = x
        windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
        if s > 1:
            windows = windows[:, ::s, ::s]
        col = ws.buf((self.index, "col"), (n * h2 * w2, c * k * k))
        np.copyto(col.reshape(n, h2, w2, k, k, c), windows.transpose(0, 1, 2, 4, 5, 3))
        out = ws.buf((self.index, "out"), (n * h2 * w2, self.w.shape[1]))
        np.matmul(col, self.w, out=out)
        out += self.b
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out.reshape(n, h2, w2, self.w.shape[1])


class _PoolStage:
    """Non-overlapping max pool over NHWC input, computed as exact
    pairwise maxima (multi-axis ``max(out=)`` hits a slow reduction path;
    strided ``np.maximum`` does not, and max is order-insensitive)."""

    __slots__ = ("size", "index")

    def __init__(self, layer: MaxPool2D, index: int) -> None:
        self.size = layer.size
        self.index = index

    @hot_path
    def run(self, x: np.ndarray, ws: Workspace) -> np.ndarray:
        n, h, w, c = x.shape
        s = self.size
        if h % s or w % s:
            raise ValueError(f"MaxPool2D({s}) needs H, W divisible by {s}, got {h}x{w}")
        rows = ws.buf((self.index, "rows"), (n, h // s, w, c))
        np.copyto(rows, x[:, 0::s])
        for i in range(1, s):
            np.maximum(rows, x[:, i::s], out=rows)
        out = ws.buf((self.index, "out"), (n, h // s, w // s, c))
        np.copyto(out, rows[:, :, 0::s])
        for i in range(1, s):
            np.maximum(out, rows[:, :, i::s], out=out)
        return out


class _FlattenStage:
    """NHWC -> flat channel-major rows (the training ``Flatten`` order)."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    @hot_path
    def run(self, x: np.ndarray, ws: Workspace) -> np.ndarray:
        if x.ndim == 2:
            return x
        n, h, w, c = x.shape
        out = ws.buf((self.index, "out"), (n, c, h, w))
        np.copyto(out, x.transpose(0, 3, 1, 2))
        return out.reshape(n, c * h * w)


class _DenseStage:
    """Fused affine + optional ReLU; folded chains arrive pre-multiplied."""

    __slots__ = ("w", "b", "relu", "index")

    def __init__(self, w: np.ndarray, b: np.ndarray, relu: bool, index: int) -> None:
        self.w = _f32(w)
        self.b = _f32(b)
        self.relu = relu
        self.index = index

    @hot_path
    def run(self, x: np.ndarray, ws: Workspace) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.w.shape[0]:
            raise ValueError(f"Dense stage expected (N, {self.w.shape[0]}), got {x.shape}")
        out = ws.buf((self.index, "out"), (x.shape[0], self.w.shape[1]))
        np.matmul(x, self.w, out=out)
        out += self.b
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out


class _ReLUStage:
    """Standalone rectifier (a ReLU not preceded by conv/dense)."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    @hot_path
    def run(self, x: np.ndarray, ws: Workspace) -> np.ndarray:
        out = ws.buf((self.index, "out"), x.shape)
        np.maximum(x, 0.0, out=out)
        return out


def _compile_stages(layers: list, counter=None) -> list:
    """Compile a layer chain into fused stages (see module docstring).

    ``counter`` issues workspace-buffer indices; one counter is shared
    through nested ``Sequential`` recursion so every stage's index (and
    therefore every workspace key) is unique across the whole net.
    """
    if counter is None:
        counter = itertools.count()
    stages: list = []
    i = 0
    while i < len(layers):
        layer = layers[i]
        if isinstance(layer, Sequential):
            stages.extend(_compile_stages(layer.layers, counter))
            i += 1
        elif isinstance(layer, Conv2D):
            relu = i + 1 < len(layers) and isinstance(layers[i + 1], ReLU)
            stages.append(_ConvStage(layer, relu, next(counter)))
            i += 2 if relu else 1
        elif isinstance(layer, Dense):
            # Constant-fold an affine chain: (x@W1+b1)@W2+b2 == x@(W1@W2)
            # + (b1@W2+b2).  Folded in float64, cast once; a chain of one
            # keeps its arrays verbatim so the common case stays
            # bit-exact.
            chain = [layer]
            j = i + 1
            while j < len(layers) and isinstance(layers[j], Dense):
                chain.append(layers[j])
                j += 1
            if len(chain) == 1:
                w, b = layer.w, layer.b
            else:
                # witness-lint: allow[dtype-float64] -- fold the affine chain in double, cast once at stage build
                w = chain[0].w.astype(np.float64)
                # witness-lint: allow[dtype-float64] -- fold the affine chain in double, cast once at stage build
                b = chain[0].b.astype(np.float64)
                for nxt in chain[1:]:
                    w = w @ nxt.w
                    b = b @ nxt.w + nxt.b
            relu = j < len(layers) and isinstance(layers[j], ReLU)
            stages.append(_DenseStage(w, b, relu, next(counter)))
            i = j + (1 if relu else 0)
        elif isinstance(layer, MaxPool2D):
            stages.append(_PoolStage(layer, next(counter)))
            i += 1
        elif isinstance(layer, Flatten):
            stages.append(_FlattenStage(next(counter)))
            i += 1
        elif isinstance(layer, ReLU):
            stages.append(_ReLUStage(next(counter)))
            i += 1
        else:
            raise TypeError(f"cannot freeze layer type {type(layer).__name__}")
    return stages


# ---------------------------------------------------------------------------
# Frozen executables
# ---------------------------------------------------------------------------


class FrozenNet:
    """An inference-only compiled ``Sequential``.

    Thread-safe without locks: weights are read-only after compilation
    and all scratch lives in one :class:`Workspace` per thread.
    """

    is_frozen = True

    def __init__(self, stages: list) -> None:
        if not stages:
            raise ValueError("FrozenNet needs at least one stage")
        self.stages = stages
        self._tls = threading.local()

    def workspace(self) -> Workspace:
        """This thread's workspace (created on the thread's first use).

        It lives in a ``threading.local``, so it is released with its
        thread.
        """
        ws = getattr(self._tls, "ws", None)
        if ws is None:
            ws = self._tls.ws = Workspace()
        return ws

    # -- execution ---------------------------------------------------------

    def forward(self, x: np.ndarray, copy: bool = True) -> np.ndarray:
        """Logits for ``x`` (NCHW raster or ``(N, D)`` feature rows).

        With ``copy=False`` the result is a view into this thread's
        workspace, valid only until the next forward on this thread —
        internal composition uses it to skip the final copy.
        """
        x = _f32(np.asarray(x))
        if x.ndim == 4:
            n, c, h, w = x.shape
            if c == 1:
                # (N, 1, H, W) and (N, H, W, 1) share one memory order.
                return self.forward_nhwc(x.reshape(n, h, w, 1), copy)
            ws = self.workspace()
            nhwc = ws.buf("entry", (n, h, w, c))
            np.copyto(nhwc, x.transpose(0, 2, 3, 1))
            return self._run(nhwc, ws, copy)
        return self._run(x, self.workspace(), copy)

    def forward_nhwc(self, x: np.ndarray, copy: bool = True) -> np.ndarray:
        """Forward a channel-last raster batch (already float32 NHWC)."""
        return self._run(x, self.workspace(), copy)

    @hot_path
    def _run(self, x: np.ndarray, ws: Workspace, copy: bool) -> np.ndarray:
        for stage in self.stages:
            x = stage.run(x, ws)
        return x.copy() if copy else x  # witness-lint: allow[hot-alloc] -- the single documented result copy (copy=False skips it)

    # -- classifier conveniences (mirror Sequential) -----------------------

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.forward(x, copy=False))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, copy=False).argmax(axis=1)


class FrozenMatcher:
    """Inference-only twin of :class:`~repro.nn.model.MatcherModel`.

    Mirrors the inference API (``forward`` / ``match_probability`` /
    ``predict`` / ``with_threshold``); there is deliberately no backward.
    """

    is_frozen = True

    def __init__(
        self,
        observed_net: FrozenNet,
        expected_net: FrozenNet,
        head_net: FrozenNet,
        threshold: float = 0.5,
    ) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0,1), got {threshold}")
        self.observed_net = observed_net
        self.expected_net = expected_net
        self.head_net = head_net
        self.threshold = threshold

    def forward(self, observed: np.ndarray, expected: np.ndarray) -> np.ndarray:
        fo = self.observed_net.forward(observed, copy=False)
        fe = self.expected_net.forward(expected, copy=False)
        if fo.shape[0] != fe.shape[0]:
            raise ValueError(f"batch mismatch: {fo.shape[0]} vs {fe.shape[0]}")
        no, ne = fo.shape[1], fe.shape[1]
        cat = self.head_net.workspace().buf("cat", (fo.shape[0], no + ne))
        cat[:, :no] = fo
        cat[:, no:] = fe
        return self.head_net.forward(cat)

    def match_probability(
        self, observed: np.ndarray, expected: np.ndarray, chunk_size: int | None = PREDICT_CHUNK
    ) -> np.ndarray:
        """P(observed matches expected); same chunk semantics as the
        training model, no lock needed (workspaces are thread-confined)."""
        return _chunked_probability(self.forward, observed, expected, chunk_size)

    def predict(
        self, observed: np.ndarray, expected: np.ndarray, chunk_size: int | None = PREDICT_CHUNK
    ) -> np.ndarray:
        return self.match_probability(observed, expected, chunk_size) >= self.threshold

    def with_threshold(self, threshold: float) -> "FrozenMatcher":
        """A view sharing nets (and their workspaces) at a new threshold."""
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0,1), got {threshold}")
        clone = FrozenMatcher.__new__(FrozenMatcher)
        clone.observed_net = self.observed_net
        clone.expected_net = self.expected_net
        clone.head_net = self.head_net
        clone.threshold = threshold
        return clone


class FrozenPairMatcher:
    """Inference-only twin of :class:`~repro.nn.model.ChannelPairMatcher`."""

    is_frozen = True

    def __init__(self, net: FrozenNet, threshold: float = 0.5) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0,1), got {threshold}")
        self.net = net
        self.threshold = threshold

    def forward(self, observed: np.ndarray, expected: np.ndarray) -> np.ndarray:
        observed = np.asarray(observed)
        expected = np.asarray(expected)
        if observed.shape != expected.shape:
            raise ValueError(f"raster shapes differ: {observed.shape} vs {expected.shape}")
        if observed.ndim != 4 or observed.shape[1] != 1:
            raise ValueError(f"expected (N, 1, H, W) rasters, got {observed.shape}")
        n, _c, h, w = observed.shape
        stacked = self.net.workspace().buf("stack", (n, h, w, 2))
        # Channel-last stacking: channel 0 observed, 1 expected — the same
        # column order the training path's channel concatenation produces.
        stacked[:, :, :, 0] = observed[:, 0]
        stacked[:, :, :, 1] = expected[:, 0]
        return self.net.forward_nhwc(stacked)

    def match_probability(
        self, observed: np.ndarray, expected: np.ndarray, chunk_size: int | None = PREDICT_CHUNK
    ) -> np.ndarray:
        return _chunked_probability(self.forward, observed, expected, chunk_size)

    def predict(
        self, observed: np.ndarray, expected: np.ndarray, chunk_size: int | None = PREDICT_CHUNK
    ) -> np.ndarray:
        return self.match_probability(observed, expected, chunk_size) >= self.threshold

    def with_threshold(self, threshold: float) -> "FrozenPairMatcher":
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0,1), got {threshold}")
        clone = FrozenPairMatcher.__new__(FrozenPairMatcher)
        clone.net = self.net
        clone.threshold = threshold
        return clone


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


def freeze(model):
    """Compile a trained model into its frozen inference executable.

    Accepts ``Sequential`` (→ :class:`FrozenNet`), ``MatcherModel``
    (→ :class:`FrozenMatcher`) and ``ChannelPairMatcher``
    (→ :class:`FrozenPairMatcher`); an already-frozen model is returned
    unchanged.  Weights are snapshotted (cast once to contiguous
    float32): freeze after loading/training, and re-freeze (or
    :func:`invalidate_frozen`) after any in-place parameter mutation.
    """
    if getattr(model, "is_frozen", False):
        return model
    if isinstance(model, MatcherModel):
        return FrozenMatcher(
            FrozenNet(_compile_stages(model.observed_branch.layers)),
            FrozenNet(_compile_stages(model.expected_branch.layers)),
            FrozenNet(_compile_stages(model.head.layers)),
            threshold=model.threshold,
        )
    if isinstance(model, ChannelPairMatcher):
        return FrozenPairMatcher(
            FrozenNet(_compile_stages(model.network.layers)), threshold=model.threshold
        )
    if isinstance(model, Sequential):
        return FrozenNet(_compile_stages(model.layers))
    raise TypeError(f"cannot freeze {type(model).__name__}")


_TWIN_LOCK = threading.Lock()


def frozen_twin(model):
    """The memoized frozen twin of ``model`` (compiled once per instance).

    The twin is cached on the model object itself so every caller —
    verifiers, ``MatcherModel.predict``'s automatic
    dispatch — shares one set of compiled weights.
    :func:`~repro.nn.serialize.load_model` invalidates the cache when it
    overwrites parameters in place.
    """
    if getattr(model, "is_frozen", False):
        return model
    with _TWIN_LOCK:
        twin = model.__dict__.get("_frozen_twin")
        if twin is None:
            twin = freeze(model)
            model.__dict__["_frozen_twin"] = twin
        return twin


def invalidate_frozen(model) -> None:
    """Drop ``model``'s memoized frozen twin (after in-place mutation)."""
    with _TWIN_LOCK:
        model.__dict__.pop("_frozen_twin", None)


def predict_fn(model):
    """The ``predict(observed, expected, chunk_size)`` callable a verifier
    feeds unit inputs to: the memoized frozen twin's.

    A model the compiler does not understand (duck-typed test doubles,
    exotic matchers) falls back to its own ``predict`` unchanged.
    """
    try:
        return frozen_twin(model).predict
    except TypeError:
        return model.predict


def fail_closed_verdicts(raw) -> np.ndarray:
    """Sanitize a predict output into fail-closed boolean verdicts.

    A healthy matcher returns a boolean array, which passes through
    untouched (no copy, no allocation).  Anything else — float logits
    from a duck-typed double, or NaN/Inf garbage from a numerically
    diverged (or fault-injected) forward — is coerced so that only a
    *finite, non-zero* value reads as a match.  The trap this exists to
    close: ``bool(float("nan"))`` is ``True``, so un-sanitized NaN
    logits would certify every mismatch they touched — the one failure
    the witness must never convert into a certification.
    """
    verdicts = np.asarray(raw)
    if verdicts.dtype == np.bool_:
        return verdicts
    if verdicts.dtype.kind in "fc":
        # NaN != 0 is True, so the isfinite mask is what fails it closed.
        return np.isfinite(verdicts) & (verdicts != 0)
    return verdicts != 0
