"""CNN verifier wrappers: unit-input extraction, caching, batching.

The *text verifier* consumes one rendered character tile plus the expected
character; the *image verifier* consumes a 32x32 observed/expected region
pair (paper Table II).  Both support:

* **sequential** mode — one model forward per unit input (the paper's
  CPU setup), and
* **batched** mode — all unit inputs of a call in one vectorized forward
  (the GPU-accelerated setup; batching is where the speedup comes from).

Each wrapper counts model invocations (the unit of Table VI) and caches
verdicts keyed by a digest of the unit input (paper §IV-A Caching).

Frame-level plan batching
-------------------------

Per-entry calls cap vectorization at one manifest entry.  A
:class:`ValidationPlan` instead collects *every* unit input of a frame —
glyph tiles from all text entries, 32x32 observed/expected pairs from all
image regions — so :meth:`TextVerifier.execute_plan` and
:meth:`ImageVerifier.execute_plan` can run the whole frame as one
(chunked) vectorized forward per model kind, plus one extra batched round
per alignment-retry offset ring for the cells that fail the nominal crop.
The per-entry methods (``verify_cells``, ``verify_region``) are thin
wrappers that build and execute a single-entry plan, so both modes share
one code path and produce identical verdicts.

Zero-copy plan transport
------------------------

A plan does not hold lists of per-unit arrays: it owns pooled
``(N, 32, 32)`` float32 buffers (:class:`repro.core.planbuf.PlanBuffers`)
plus plain metadata columns, and the collect pass writes every crop in
place (``glyph_tile_from_frame(..., out=row)``,
:func:`region_tiles_into`).  Execution feeds buffer *views* to the model
— pending rows are gathered into the executing thread's pooled scratch,
normalized in place, and handed to the frozen engine without an
intermediate stack; the alignment-retry rings re-extract failing cells
into one reusable ring buffer per round.  Steady-state repeated-frame
validation therefore performs zero per-unit array allocations; the
``hot-alloc`` witness-lint rule pins the buffer-writing functions.

Frozen inference
----------------

Verifiers feed unit inputs to the model's compiled frozen twin
(:mod:`repro.nn.infer`) — fused float32 stages over reused per-shape
workspaces, no inference lock.  The layer-by-layer training forward
(``MatcherModel.predict(..., frozen=False)``) stays for training and
attacks, and as the reference the frozen path's parity tests compare
against.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import hot_path
from repro.core.planbuf import PLAN_DTYPE, PlanBuffers, thread_pool
from repro.obs.spans import maybe_span
from repro.nn.data import CHAR_TO_INDEX, collapse_char
from repro.nn.infer import fail_closed_verdicts, predict_fn
from repro.nn.model import PREDICT_CHUNK, MatcherModel
from repro.vision.hashing import region_digest
from repro.vision.image import DTYPE as RASTER_DTYPE
from repro.vision.image import as_array
from repro.vision.ops import resize_bilinear
from repro.vspec.spec import CharCell

#: Model input side length.
TILE = 32

#: NCC floor for structural (non-CNN) region matching of UI chrome.
STRUCTURAL_NCC_FLOOR = 0.80


#: Maximum mean absolute residual (intensity levels) after affine
#: intensity alignment for structural matching.
STRUCTURAL_MAD_CEILING = 10.0

#: Shared empty verdict-tile array (plans with no units of a kind).
_NO_TILES = np.zeros((0, TILE, TILE), dtype=PLAN_DTYPE)


def structural_match(
    observed: np.ndarray,
    expected: np.ndarray,
    threshold: float = STRUCTURAL_NCC_FLOOR,
    mad_ceiling: float = STRUCTURAL_MAD_CEILING,
) -> bool:
    """Match UI chrome regions (buttons, widget states) structurally.

    The paper encodes visual input states as "a well-defined appearance";
    matching them needs tolerance to rendering-stack intensity/gamma
    shifts but not to content changes.  Two complementary criteria:

    * zero-normalized cross-correlation >= ``threshold`` — affine-
      intensity-invariant structure agreement, and
    * mean absolute residual after least-squares affine intensity
      alignment <= ``mad_ceiling`` — catches *localized* content changes
      (a checkmark appearing in a mostly-border-dominated widget) that
      barely move a global correlation score.

    The CNN image model stays reserved for content images (icons, photos,
    screen regions), its training domain.
    """
    from repro.vision.match import normalized_cross_correlation

    observed = np.asarray(observed)
    expected = np.asarray(expected)
    if observed.shape != expected.shape:
        return False
    if normalized_cross_correlation(observed, expected) < threshold:
        return False
    obs_std = observed.std()
    if obs_std < 1e-9:
        aligned = np.full_like(observed, expected.mean(), dtype=RASTER_DTYPE)
    else:
        aligned = (observed - observed.mean()) * (expected.std() / obs_std) + expected.mean()
    return float(np.mean(np.abs(aligned - expected))) <= mad_ceiling


def _paste_window(frame: np.ndarray, fx: int, fy: int, w: int, h: int, dst: np.ndarray, dst_x: int) -> None:
    """Copy the clipped ``(fx, fy, w, h)`` window of ``frame`` into ``dst``
    starting at column ``dst_x`` (``dst`` is pre-filled with background).

    Same clip math as :meth:`repro.vision.image.Image.crop_clipped`, but
    writing into a caller-owned buffer instead of allocating.
    """
    fh, fw = frame.shape
    sx0, sy0 = max(fx, 0), max(fy, 0)
    sx1, sy1 = min(fx + w, fw), min(fy + h, fh)
    if sx1 > sx0 and sy1 > sy0:
        dst[sy0 - fy : sy1 - fy, dst_x + (sx0 - fx) : dst_x + (sx1 - fx)] = frame[sy0:sy1, sx0:sx1]


@hot_path
def glyph_tile_from_frame(
    frame_pixels: np.ndarray,
    cell: CharCell,
    offset_x: int,
    offset_y: int,
    background: float = 255.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Extract the square glyph region for a manifest character cell.

    Mirrors :func:`repro.raster.text.render_text_line` geometry: glyph
    tiles are squares of side ``cell.h`` centred in the advance-wide cell.
    ``offset_*`` translate page coordinates into frame coordinates (the
    viewport scroll).  Writes the 32x32 tile into ``out`` when given (a
    pooled plan-buffer row; the float32 cast happens on the write) and
    returns it; without ``out`` a fresh float64 tile is returned.
    """
    size = cell.h
    advance = cell.w
    if advance >= size:
        x0 = cell.x + (advance - size) // 2
        pad_l = 0
        src_w = size
    else:
        # The renderer cropped the glyph tile horizontally; reconstruct the
        # square by padding with background.
        x0 = cell.x
        pad_l = (size - advance) // 2
        src_w = advance
    fy = cell.y - offset_y
    fx = x0 - offset_x
    frame = as_array(frame_pixels)
    if out is None:
        # witness-lint: allow[hot-alloc] -- compat path: caller gave no out= row
        out = np.empty((TILE, TILE), dtype=RASTER_DTYPE)
    if size == TILE:
        out.fill(background)
        _paste_window(frame, fx, fy, src_w, size, out, pad_l)
        return out
    pool = thread_pool()
    square = pool.reserve(("glyph-square", size), 1, (size, size), dtype=RASTER_DTYPE)[0]
    square.fill(background)
    _paste_window(frame, fx, fy, src_w, size, square, pad_l)
    scratch = pool.reserve(("resize-scratch",), 4, (TILE, TILE), dtype=RASTER_DTYPE)
    return resize_bilinear(square, TILE, TILE, out=out, scratch=scratch[:4])


def split_region_into_tiles(region: np.ndarray, background: float = 255.0) -> list:
    """Split a region into 32x32 tiles (edge tiles padded with background).

    Returns ``(tile, (row, col))`` pairs; regions smaller than one tile
    yield a single padded tile.  This is the unit-input decomposition the
    image verifier is invoked on (paper: "a 32-by-32 sub-region").
    Allocating compat form of :func:`region_tiles_into`.
    """
    h, w = region.shape
    tiles = []
    rows = max(1, (h + TILE - 1) // TILE)
    cols = max(1, (w + TILE - 1) // TILE)
    for r in range(rows):
        for c in range(cols):
            tile = np.full((TILE, TILE), background, dtype=RASTER_DTYPE)
            y0, x0 = r * TILE, c * TILE
            y1, x1 = min(y0 + TILE, h), min(x0 + TILE, w)
            if y1 > y0 and x1 > x0:
                tile[: y1 - y0, : x1 - x0] = region[y0:y1, x0:x1]
            tiles.append((tile, (r, c)))
    return tiles


def region_tile_count(shape: tuple) -> int:
    """How many 32x32 unit tiles a region of ``shape`` decomposes into."""
    h, w = shape
    return max(1, (h + TILE - 1) // TILE) * max(1, (w + TILE - 1) // TILE)


@hot_path
def region_tiles_into(region: np.ndarray, out: np.ndarray, background: float = 255.0) -> int:
    """Tile a region into 32x32 unit inputs written into rows of ``out``.

    Same decomposition (and padding) as :func:`split_region_into_tiles`,
    but each tile is written in place into ``out[i]`` (a pooled plan
    buffer) instead of being allocated.  Returns the tile count.
    """
    h, w = region.shape
    rows = max(1, (h + TILE - 1) // TILE)
    cols = max(1, (w + TILE - 1) // TILE)
    i = 0
    for r in range(rows):
        y0 = r * TILE
        y1 = min(y0 + TILE, h)
        for c in range(cols):
            x0 = c * TILE
            x1 = min(x0 + TILE, w)
            tile = out[i]
            tile.fill(background)
            if y1 > y0 and x1 > x0:
                tile[: y1 - y0, : x1 - x0] = region[y0:y1, x0:x1]
            i += 1
    return i


def forwards_for(units: int, chunk_size: int | None) -> int:
    """Model forward passes a batch of ``units`` rows costs when chunked."""
    if units <= 0:
        return 0
    if chunk_size is None:
        return 1
    return -(-units // chunk_size)  # ceil division


def _check_chunk_size(chunk_size: int | None) -> int | None:
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be None or >= 1, got {chunk_size}")
    return chunk_size


def _dedupe_pending(keys: list):
    """Collapse pending unit inputs that share a cache key.

    Repeated glyphs across a frame-level plan hash to the same key before
    any verdict is cached (puts only land after the round's predict), so
    without dedup every duplicate would be fed to the model.  Returns
    ``(rep_positions, row_of)``: the positions (into the pending list)
    that must actually be predicted, and each pending entry's row in that
    predicted batch.  Keyless entries (no cache) are never collapsed.
    """
    rep_row: dict = {}
    rep_positions: list = []
    row_of: list = []
    for j, key in enumerate(keys):
        if key is not None and key in rep_row:
            row_of.append(rep_row[key])
            continue
        row = len(rep_positions)
        rep_positions.append(j)
        if key is not None:
            rep_row[key] = row
        row_of.append(row)
    return rep_positions, row_of


class _PairRows:
    """Sequence view pairing rows of two ``(N, 32, 32)`` buffers.

    Lets :meth:`ImageVerifier.verify_pairs` consume pooled plan columns
    through the same indexing protocol as a compat list of
    ``(observed, expected)`` tuples, without materializing pair objects.
    """

    __slots__ = ("observed", "expected")

    def __init__(self, observed: np.ndarray, expected: np.ndarray) -> None:
        self.observed = observed
        self.expected = expected

    def __len__(self) -> int:
        return self.observed.shape[0]

    def __getitem__(self, i):
        return self.observed[i], self.expected[i]


class ValidationPlan:
    """Every verifier unit input of one frame, collected before execution.

    The collect phase (:meth:`repro.core.display.DisplayValidator.validate`)
    walks the whole manifest and funnels unit inputs here; the execute
    phase then runs one vectorized (chunked) forward per model kind and
    scatters verdicts back to the registered index ranges/groups.  Text
    units keep per-unit retry metadata so the alignment-retry pyramid runs
    as one batched round per offset ring across *all* failing cells of
    the frame, instead of up to 12 serial rounds per entry.

    Unit inputs live in pooled ``(N, 32, 32)`` float32 buffers owned by
    ``self.buffers`` (thread-confined to the collecting thread); a plan
    is reused across frames via :meth:`reset`, so steady-state collection
    writes into resident memory.
    """

    #: Pool keys of the plan's transport columns.
    TEXT_KEY = "text-tiles"
    IMAGE_OBS_KEY = "image-obs"
    IMAGE_EXP_KEY = "image-exp"

    def __init__(self, buffers: PlanBuffers | None = None) -> None:
        self.buffers = PlanBuffers() if buffers is None else buffers
        #: Expected character per text unit.
        self.text_chars: list = []
        #: Per-unit alignment-retry metadata: ``(frame_pixels, cell,
        #: offset_x, offset_y, background)`` or ``None`` for units with no
        #: alignment search (e.g. tiles cut from a nested raster that was
        #: already offset-matched).
        self.text_retries: list = []
        self.image_groups: list = []  # (start, stop) ranges into image pairs
        #: Retry rings actually executed (filled by TextVerifier.execute_plan).
        self.text_retry_rounds = 0
        self._text_count = 0
        self._image_count = 0
        self._text_backing: np.ndarray | None = None
        self._image_obs_backing: np.ndarray | None = None
        self._image_exp_backing: np.ndarray | None = None

    def reset(self) -> None:
        """Forget all collected units; keep the pooled buffers resident.

        Reset marks a frame boundary: pool ownership is released so the
        thread driving *this* frame claims the buffers (sessions migrate
        between worker threads frame to frame; witness-san flags only
        mid-frame cross-thread use).
        """
        self.buffers.release_ownership()
        self.text_chars.clear()
        self.text_retries.clear()
        self.image_groups.clear()
        self.text_retry_rounds = 0
        self._text_count = 0
        self._image_count = 0

    # -- collection --------------------------------------------------------

    @hot_path
    def add_cells(
        self,
        frame_pixels: np.ndarray,
        cells: list,
        offset_x: int = 0,
        offset_y: int = 0,
        background: float = 255.0,
        retry: bool = True,
    ) -> slice:
        """Queue manifest character cells; returns their verdict slice.

        Each cell's glyph tile is extracted straight into the plan's
        pooled text buffer.  ``retry=False`` queues the cells without
        alignment-retry metadata.
        """
        start = self._text_count
        backing = self.buffers.reserve(self.TEXT_KEY, start + len(cells), (TILE, TILE))
        self._text_backing = backing
        row = start
        for cell in cells:
            glyph_tile_from_frame(
                frame_pixels, cell, offset_x, offset_y, background, out=backing[row]
            )
            self.text_chars.append(cell.char)
            self.text_retries.append(
                (frame_pixels, cell, offset_x, offset_y, background) if retry else None
            )
            row += 1
        self._text_count = row
        return slice(start, row)

    @hot_path
    def add_tiles(self, tiles, chars: list) -> slice:
        """Queue pre-extracted glyph tiles (no alignment retry)."""
        if len(tiles) != len(chars):
            raise ValueError(f"tiles/chars misaligned: {len(tiles)} vs {len(chars)}")
        start = self._text_count
        backing = self.buffers.reserve(self.TEXT_KEY, start + len(tiles), (TILE, TILE))
        self._text_backing = backing
        row = start
        for tile, char in zip(tiles, chars):
            backing[row] = tile
            self.text_chars.append(char)
            self.text_retries.append(None)
            row += 1
        self._text_count = row
        return slice(start, row)

    @hot_path
    def add_region(self, observed: np.ndarray, expected: np.ndarray, background: float = 255.0) -> int:
        """Queue an observed/expected region pair; returns its group index.

        Both rasters are tiled into 32x32 unit inputs written into the
        plan's pooled image columns (float32, the canonical transport
        dtype); the group verdict is the AND over its tile pairs.
        """
        observed = np.asarray(observed)
        expected = np.asarray(expected)
        if observed.shape != expected.shape:
            raise ValueError(
                f"region shapes must agree, got {observed.shape} vs {expected.shape}"
            )
        count = region_tile_count(observed.shape)
        start = self._image_count
        obs_backing = self.buffers.reserve(self.IMAGE_OBS_KEY, start + count, (TILE, TILE))
        exp_backing = self.buffers.reserve(self.IMAGE_EXP_KEY, start + count, (TILE, TILE))
        self._image_obs_backing = obs_backing
        self._image_exp_backing = exp_backing
        region_tiles_into(observed, obs_backing[start : start + count], background)
        region_tiles_into(expected, exp_backing[start : start + count], background)
        self._image_count = start + count
        self.image_groups.append((start, self._image_count))
        return len(self.image_groups) - 1

    # -- buffer views ------------------------------------------------------

    @property
    def text_tiles(self) -> np.ndarray:
        """``(N, 32, 32)`` float32 view of the collected glyph tiles."""
        if self._text_count == 0:
            return _NO_TILES
        return self._text_backing[: self._text_count]

    @property
    def image_observed(self) -> np.ndarray:
        if self._image_count == 0:
            return _NO_TILES
        return self._image_obs_backing[: self._image_count]

    @property
    def image_expected(self) -> np.ndarray:
        if self._image_count == 0:
            return _NO_TILES
        return self._image_exp_backing[: self._image_count]

    @property
    def image_pairs(self) -> _PairRows:
        """Pair-indexable view of the image columns (compat protocol)."""
        return _PairRows(self.image_observed, self.image_expected)

    # -- stats -------------------------------------------------------------

    @property
    def text_unit_count(self) -> int:
        return self._text_count

    @property
    def image_pair_count(self) -> int:
        return self._image_count


class TextVerifier:
    """Text model wrapper with caching, batching and invocation counting.

    ``invocations`` counts unit inputs fed to the model (the unit of
    Table VI); ``forwards`` counts actual model forward passes — in
    batched mode one (chunked) forward covers many unit inputs, which is
    where the paper's GPU-setup speedup comes from.
    """

    def __init__(
        self,
        model: MatcherModel,
        batched: bool = False,
        cache=None,
        chunk_size: int | None = PREDICT_CHUNK,
        tracer=None,
        faults=None,
    ) -> None:
        self.model = model
        self.batched = batched
        self.cache = cache
        self.chunk_size = _check_chunk_size(chunk_size)
        #: Optional :class:`repro.obs.spans.SpanTracer`; ``None`` (the
        #: default) keeps every span site on the no-op fast path.
        self.tracer = tracer
        self._predict = predict_fn(model, "frozen")
        if faults is not None:
            # Arm the ``infer.*`` seams: the wrapped forward may raise or
            # return NaN logits; the retry/sanitize helpers absorb both.
            self._predict = faults.wrap_predict(self._predict)
        self.invocations = 0
        self.forwards = 0
        #: Inline forwards that raised and were retried once.
        self.forward_retries = 0
        #: Cache lookups/stores that raised and were treated as misses.
        self.cache_faults = 0

    def reset_counters(self) -> None:
        self.invocations = 0
        self.forwards = 0

    def _cache_get(self, key: str):
        """A cache lookup that degrades, never decides: errors are misses."""
        try:
            return self.cache.get(key)
        except Exception:
            self.cache_faults += 1
            return None

    def _cache_put(self, key: str, value: bool) -> None:
        try:
            self.cache.put(key, value)
        except Exception:
            self.cache_faults += 1

    def _forward_batch(self, obs: np.ndarray, exp: np.ndarray) -> np.ndarray:
        """One sanitized batched forward, retrying once if it raises."""
        try:
            raw = self._predict(obs, exp, chunk_size=self.chunk_size)
        except Exception:
            self.forward_retries += 1
            raw = self._predict(obs, exp, chunk_size=self.chunk_size)
        return fail_closed_verdicts(raw)

    def _forward_unit(self, obs1: np.ndarray, exp1: np.ndarray) -> np.ndarray:
        """One sanitized single-unit forward, retrying once if it raises."""
        try:
            raw = self._predict(obs1, exp1)
        except Exception:
            self.forward_retries += 1
            raw = self._predict(obs1, exp1)
        return fail_closed_verdicts(raw)

    def _expected_onehot_rows(self, chars: list) -> np.ndarray:
        """One-hot expected-class rows in the thread's pooled buffer."""
        m = len(chars)
        backing = thread_pool().reserve(("text-onehot",), m, (len(CHAR_TO_INDEX),))
        rows = backing[:m]
        rows.fill(0.0)
        for row, char in enumerate(chars):
            rows[row, CHAR_TO_INDEX[collapse_char(char)]] = 1.0
        return rows

    def verify_tiles(self, tiles, chars: list) -> np.ndarray:
        """Match verdicts for (tile, expected char) pairs.

        ``tiles`` is a ``(N, 32, 32)`` buffer view (plan path) or a list
        of 32x32 tiles (compat path); either way pending rows are
        gathered into pooled scratch and normalized in place, so no
        per-unit array is allocated.
        """
        if len(tiles) != len(chars):
            raise ValueError(f"tiles/chars misaligned: {len(tiles)} vs {len(chars)}")
        n = len(tiles)
        if n == 0:
            return np.zeros(0, dtype=bool)
        results = np.zeros(n, dtype=bool)
        pending_idx = []
        keys = []
        for i in range(n):
            key = None
            if self.cache is not None:
                key = f"text:{region_digest(tiles[i])}:{collapse_char(chars[i])}"
                hit = self._cache_get(key)
                if hit is not None:
                    results[i] = hit
                    continue
            pending_idx.append(i)
            keys.append(key)
        if pending_idx:
            rep_positions, row_of = _dedupe_pending(keys)
            m = len(rep_positions)
            backing = thread_pool().reserve(("text-pending",), m, (TILE, TILE))
            for row, j in enumerate(rep_positions):
                backing[row] = tiles[pending_idx[j]]
            obs = backing[:m].reshape(m, 1, TILE, TILE)
            np.divide(obs, 255.0, out=obs)
            exp = self._expected_onehot_rows([chars[pending_idx[j]] for j in rep_positions])
            if self.batched:
                self.invocations += m
                with maybe_span(self.tracer, "forward.text"):
                    verdicts = self._forward_batch(obs, exp)
                self.forwards += forwards_for(m, self.chunk_size)
            else:
                verdicts = np.zeros(m, dtype=bool)
                with maybe_span(self.tracer, "forward.text"):
                    for j in range(m):
                        verdicts[j] = bool(self._forward_unit(obs[j : j + 1], exp[j : j + 1])[0])
                        self.invocations += 1
                        self.forwards += 1
            for row, j in enumerate(rep_positions):
                if self.cache is not None and keys[j] is not None:
                    self._cache_put(keys[j], bool(verdicts[row]))
            for j, i in enumerate(pending_idx):
                results[i] = verdicts[row_of[j]]
        return results

    #: Alignment search offsets for cells that fail at the nominal crop.
    #: Viewport detection is integer-precise while rendering stacks place
    #: glyphs with sub-pixel phase, so a failing cell is re-examined at
    #: one-pixel shifts before being reported as tampered.  An attacker
    #: gains nothing: every retry still has to match the expected char.
    RETRY_OFFSETS = (
        (1, 0), (-1, 0), (0, 1), (0, -1),
        (1, 1), (-1, -1), (1, -1), (-1, 1),
        (2, 0), (-2, 0), (0, 2), (0, -2),
    )

    def verify_cells(
        self,
        frame_pixels: np.ndarray,
        cells: list,
        offset_x: int = 0,
        offset_y: int = 0,
        background: float = 255.0,
    ) -> np.ndarray:
        """Verify manifest character cells against a sampled frame.

        Thin wrapper: builds a single-entry :class:`ValidationPlan` and
        executes it, so per-entry and frame-level callers share one code
        path (nominal round + batched retry rings).
        """
        plan = ValidationPlan()
        plan.add_cells(frame_pixels, cells, offset_x, offset_y, background)
        return self.execute_plan(plan)

    def execute_plan(self, plan: ValidationPlan) -> np.ndarray:
        """Verdicts for every text unit of a plan.

        One vectorized (chunked) nominal round over all queued tiles,
        then — for units that fail and carry retry metadata — one batched
        round per offset ring of :data:`RETRY_OFFSETS` across all failing
        units of the frame at once.  Each ring re-extracts its tiles into
        one pooled retry buffer (reused round over round, frame over
        frame).
        """
        verdicts = self.verify_tiles(plan.text_tiles, plan.text_chars)
        retries = plan.text_retries
        failing = [i for i, v in enumerate(verdicts) if not v and retries[i] is not None]
        rounds = 0
        pool = thread_pool()
        for dx, dy in self.RETRY_OFFSETS:
            if not failing:
                break
            rounds += 1
            ring = pool.reserve(("text-retry",), len(failing), (TILE, TILE))
            for row, i in enumerate(failing):
                frame_pixels, cell, offset_x, offset_y, background = retries[i]
                glyph_tile_from_frame(
                    frame_pixels, cell, offset_x + dx, offset_y + dy, background, out=ring[row]
                )
            retry = self.verify_tiles(
                ring[: len(failing)], [plan.text_chars[i] for i in failing]
            )
            still = []
            for j, i in enumerate(failing):
                if retry[j]:
                    verdicts[i] = True
                else:
                    still.append(i)
            failing = still
        plan.text_retry_rounds = rounds
        return verdicts


class ImageVerifier:
    """Graphics model wrapper: 32x32 observed/expected region matching.

    ``invocations``/``forwards`` follow the same semantics as
    :class:`TextVerifier`: unit inputs fed to the model vs actual model
    forward passes.
    """

    def __init__(
        self,
        model: MatcherModel,
        batched: bool = False,
        cache=None,
        chunk_size: int | None = PREDICT_CHUNK,
        tracer=None,
        faults=None,
    ) -> None:
        self.model = model
        self.batched = batched
        self.cache = cache
        self.chunk_size = _check_chunk_size(chunk_size)
        #: Optional :class:`repro.obs.spans.SpanTracer` (see TextVerifier).
        self.tracer = tracer
        self._predict = predict_fn(model, "frozen")
        if faults is not None:
            # Same ``infer.*`` seam arming as TextVerifier.
            self._predict = faults.wrap_predict(self._predict)
        self.invocations = 0
        self.forwards = 0
        #: Inline forwards that raised and were retried once.
        self.forward_retries = 0
        #: Cache lookups/stores that raised and were treated as misses.
        self.cache_faults = 0

    def reset_counters(self) -> None:
        self.invocations = 0
        self.forwards = 0

    # Same degrade-never-decide guards as TextVerifier: a raising cache is
    # a miss, a raising forward gets one retry, and verdicts are always
    # sanitized fail-closed before caching or scattering.
    _cache_get = TextVerifier._cache_get
    _cache_put = TextVerifier._cache_put
    _forward_batch = TextVerifier._forward_batch
    _forward_unit = TextVerifier._forward_unit

    def verify_pairs(self, pairs) -> np.ndarray:
        """Match verdicts for 32x32 ``(observed, expected)`` tile pairs.

        ``pairs`` is anything pair-indexable: a plan's pooled
        :class:`_PairRows` view or a compat list of tuples.  Pending rows
        are gathered into pooled scratch and normalized in place.
        """
        n = len(pairs)
        if n == 0:
            return np.zeros(0, dtype=bool)
        results = np.zeros(n, dtype=bool)
        pending_idx = []
        keys = []
        for i in range(n):
            observed, expected = pairs[i]
            key = None
            if self.cache is not None:
                key = f"img:{region_digest(observed)}:{region_digest(expected)}"
                hit = self._cache_get(key)
                if hit is not None:
                    results[i] = hit
                    continue
            pending_idx.append(i)
            keys.append(key)
        if pending_idx:
            rep_positions, row_of = _dedupe_pending(keys)
            m = len(rep_positions)
            pool = thread_pool()
            obs_backing = pool.reserve(("image-pending-obs",), m, (TILE, TILE))
            exp_backing = pool.reserve(("image-pending-exp",), m, (TILE, TILE))
            for row, j in enumerate(rep_positions):
                observed, expected = pairs[pending_idx[j]]
                obs_backing[row] = observed
                exp_backing[row] = expected
            obs = obs_backing[:m].reshape(m, 1, TILE, TILE)
            exp = exp_backing[:m].reshape(m, 1, TILE, TILE)
            np.divide(obs, 255.0, out=obs)
            np.divide(exp, 255.0, out=exp)
            if self.batched:
                self.invocations += m
                with maybe_span(self.tracer, "forward.image"):
                    verdicts = self._forward_batch(obs, exp)
                self.forwards += forwards_for(m, self.chunk_size)
            else:
                verdicts = np.zeros(m, dtype=bool)
                with maybe_span(self.tracer, "forward.image"):
                    for j in range(m):
                        verdicts[j] = bool(self._forward_unit(obs[j : j + 1], exp[j : j + 1])[0])
                        self.invocations += 1
                        self.forwards += 1
            for row, j in enumerate(rep_positions):
                if self.cache is not None and keys[j] is not None:
                    self._cache_put(keys[j], bool(verdicts[row]))
            for j, i in enumerate(pending_idx):
                results[i] = verdicts[row_of[j]]
        return results

    def verify_region(self, observed: np.ndarray, expected: np.ndarray, background: float = 255.0) -> bool:
        """Match an observed region against its expected appearance.

        Thin wrapper over a single-region :class:`ValidationPlan`: both
        rasters are tiled into 32x32 unit inputs and the region matches
        only if every tile pair matches.
        """
        observed = np.asarray(observed)
        expected = np.asarray(expected)
        if observed.shape != expected.shape:
            return False
        plan = ValidationPlan()
        group = plan.add_region(observed, expected, background)
        return self.execute_plan(plan)[group]

    def execute_plan(self, plan: ValidationPlan) -> list:
        """Per-group verdicts for every image region of a plan.

        All tile pairs of all regions go through one vectorized (chunked)
        :meth:`verify_pairs` call; each group's verdict is the AND over
        its tile range.
        """
        verdicts = self.verify_pairs(plan.image_pairs)
        return [
            bool(np.all(verdicts[start:stop])) if stop > start else True
            for start, stop in plan.image_groups
        ]
