"""CNN verifier wrappers: unit-input extraction, caching, batching.

The *text verifier* consumes one rendered character tile plus the expected
character; the *image verifier* consumes a 32x32 observed/expected region
pair (paper Table II).  Each wrapper counts model invocations (the unit
of Table VI) and caches verdicts keyed by a digest of the unit input
(paper §IV-A Caching).

Frame-level plans
-----------------

A :class:`ValidationPlan` collects *every* unit input of a frame — glyph
tiles from all text entries, 32x32 observed/expected pairs from all image
regions — as plain per-frame arrays.  :meth:`TextVerifier.execute_plan`
and :meth:`ImageVerifier.execute_plan` stack them once, cast them to
float32 and scale them in place, then run the cache misses through the
model in chunks of ``chunk_size`` rows, plus one extra round per
alignment-retry offset ring for the cells that fail the nominal crop.
The per-entry methods (``verify_cells``, ``verify_region``) are thin
wrappers that build and execute a single-entry plan.

There is one forward path with two chunk sizes: the paper's GPU setup
forwards up to :data:`~repro.nn.model.PREDICT_CHUNK` rows at once, its
CPU setup (``chunk_size=1``) forwards every row alone.  Verdicts and
invocation counts are identical; only ``forwards`` differs.

Frozen inference
----------------

Verifiers feed unit inputs to the model's compiled frozen twin
(:mod:`repro.nn.infer`) — fused float32 stages over one grow-only
workspace per net and thread, no inference lock.  Every chunk size a
plan forwards is served from the buffers of the largest one that thread
has seen.  The layer-by-layer training forward
(``MatcherModel.predict(..., frozen=False)``) stays for training and
attacks, and as the reference the frozen path's parity tests compare
against.
"""

from __future__ import annotations

import numpy as np

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

#: Dtype of unit inputs at the model boundary: tiles are cast to it
#: before the in-place ``/ 255`` so the scaling runs in float32, and the
#: cache keys digest the cast tile.
PLAN_DTYPE = np.float32


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

    Same clip math as :meth:`repro.vision.image.Image.crop_clipped`.
    """
    fh, fw = frame.shape
    sx0, sy0 = max(fx, 0), max(fy, 0)
    sx1, sy1 = min(fx + w, fw), min(fy + h, fh)
    if sx1 > sx0 and sy1 > sy0:
        dst[sy0 - fy : sy1 - fy, dst_x + (sx0 - fx) : dst_x + (sx1 - fx)] = frame[sy0:sy1, sx0:sx1]


def glyph_tile_from_frame(
    frame_pixels: np.ndarray,
    cell: CharCell,
    offset_x: int,
    offset_y: int,
    background: float = 255.0,
) -> np.ndarray:
    """Extract the square glyph region for a manifest character cell.

    Mirrors :func:`repro.raster.text.render_text_line` geometry: glyph
    tiles are squares of side ``cell.h`` centred in the advance-wide cell,
    resampled to 32x32.  ``offset_*`` translate page coordinates into
    frame coordinates (the viewport scroll).
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
    square = np.full((size, size), background, dtype=RASTER_DTYPE)
    _paste_window(as_array(frame_pixels), x0 - offset_x, cell.y - offset_y, src_w, size, square, pad_l)
    if size == TILE:
        return square
    return resize_bilinear(square, TILE, TILE)


def split_region_into_tiles(region: np.ndarray, background: float = 255.0) -> list:
    """Split a region into 32x32 tiles (edge tiles padded with background).

    Returns ``(tile, (row, col))`` pairs; regions smaller than one tile
    yield a single padded tile.  This is the unit-input decomposition the
    image verifier is invoked on (paper: "a 32-by-32 sub-region").
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


class ValidationPlan:
    """Every verifier unit input of one frame, collected before execution.

    The collect phase (:meth:`repro.core.display.DisplayValidator.validate`)
    walks the whole manifest and funnels unit inputs here; the execute
    phase then runs the model once per chunk of cache misses per model
    kind and scatters verdicts back to the registered index ranges/groups.
    Text units keep per-unit retry metadata so the alignment-retry pyramid
    runs as one round per offset ring across *all* failing cells of the
    frame, instead of up to 12 serial rounds per entry.

    Unit inputs are kept as plain 32x32 arrays, one list per column, and
    stacked into float32 ``(N, 32, 32)`` arrays when read.  A plan holds
    one frame: the display validator builds a fresh one per frame.
    """

    def __init__(self) -> None:
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
        self._text_tiles: list = []
        self._image_observed: list = []
        self._image_expected: list = []

    # -- collection --------------------------------------------------------

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

        ``retry=False`` queues the cells without alignment-retry metadata.
        """
        start = len(self._text_tiles)
        for cell in cells:
            self._text_tiles.append(
                glyph_tile_from_frame(frame_pixels, cell, offset_x, offset_y, background)
            )
            self.text_chars.append(cell.char)
            self.text_retries.append(
                (frame_pixels, cell, offset_x, offset_y, background) if retry else None
            )
        return slice(start, len(self._text_tiles))

    def add_region(self, observed: np.ndarray, expected: np.ndarray, background: float = 255.0) -> int:
        """Queue an observed/expected region pair; returns its group index.

        Both rasters are split into 32x32 unit inputs; the group verdict
        is the AND over its tile pairs.
        """
        observed = np.asarray(observed)
        expected = np.asarray(expected)
        if observed.shape != expected.shape:
            raise ValueError(
                f"region shapes must agree, got {observed.shape} vs {expected.shape}"
            )
        start = len(self._image_observed)
        self._image_observed.extend(t for t, _pos in split_region_into_tiles(observed, background))
        self._image_expected.extend(t for t, _pos in split_region_into_tiles(expected, background))
        self.image_groups.append((start, len(self._image_observed)))
        return len(self.image_groups) - 1

    # -- stacked columns ---------------------------------------------------

    @property
    def text_tiles(self) -> np.ndarray:
        """``(N, 32, 32)`` float32 stack of the collected glyph tiles."""
        return _stack_tiles(self._text_tiles)

    @property
    def image_observed(self) -> np.ndarray:
        return _stack_tiles(self._image_observed)

    @property
    def image_expected(self) -> np.ndarray:
        return _stack_tiles(self._image_expected)

    # -- stats -------------------------------------------------------------

    @property
    def text_unit_count(self) -> int:
        return len(self._text_tiles)

    @property
    def image_pair_count(self) -> int:
        return len(self._image_observed)


def _stack_tiles(tiles) -> np.ndarray:
    """32x32 tiles (a list or an ``(N, 32, 32)`` array) as one float32
    ``(N, 32, 32)`` array; no copy when already that."""
    return np.asarray(tiles, dtype=PLAN_DTYPE).reshape(-1, TILE, TILE)


class _Verifier:
    """What both verifiers share: the digest cache, the forward, counters.

    ``invocations`` counts unit inputs fed to the model (the unit of
    Table VI); ``forwards`` counts actual model forward passes, one per
    chunk of at most ``chunk_size`` rows.  ``chunk_size=1`` forwards each
    row alone (the paper's CPU setup); a large chunk covers a frame's
    cache misses in one forward (its GPU setup).
    """

    def __init__(
        self,
        model: MatcherModel,
        cache=None,
        chunk_size: int | None = PREDICT_CHUNK,
        tracer=None,
        faults=None,
    ) -> None:
        self.model = model
        self.cache = cache
        self.chunk_size = _check_chunk_size(chunk_size)
        #: Optional :class:`repro.obs.spans.SpanTracer`; ``None`` (the
        #: default) keeps every span site on the no-op fast path.
        self.tracer = tracer
        self._predict = predict_fn(model)
        if faults is not None:
            # Arm the ``infer.*`` seams: the wrapped forward may raise or
            # return NaN logits; the retry/sanitize helpers absorb both.
            self._predict = faults.wrap_predict(self._predict)
        self.invocations = 0
        self.forwards = 0
        #: Forwards that raised and were retried once.
        self.forward_retries = 0
        #: Cache lookups/stores that raised and were treated as misses.
        self.cache_faults = 0

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

    def _forward(self, obs: np.ndarray, exp: np.ndarray) -> np.ndarray:
        """One sanitized chunked forward, retrying once if it raises."""
        try:
            raw = self._predict(obs, exp, chunk_size=self.chunk_size)
        except Exception:
            self.forward_retries += 1
            raw = self._predict(obs, exp, chunk_size=self.chunk_size)
        return fail_closed_verdicts(raw)

    def _verify(self, keys: list, rows, span: str) -> np.ndarray:
        """Verdicts for N unit inputs, cache first, then one forward.

        ``keys`` holds each unit's cache key (``None`` when uncached);
        ``rows(indices)`` returns the scaled ``(observed, expected)``
        model rows of those units.  Misses that share a key are forwarded
        once; verdicts are sanitized fail-closed before caching.
        """
        results = np.zeros(len(keys), dtype=bool)
        pending_idx = []
        pending_keys = []
        for i, key in enumerate(keys):
            if key is not None:
                hit = self._cache_get(key)
                if hit is not None:
                    results[i] = hit
                    continue
            pending_idx.append(i)
            pending_keys.append(key)
        if not pending_idx:
            return results
        rep_positions, row_of = _dedupe_pending(pending_keys)
        obs, exp = rows([pending_idx[j] for j in rep_positions])
        m = len(rep_positions)
        self.invocations += m
        with maybe_span(self.tracer, span):
            verdicts = self._forward(obs, exp)
        self.forwards += forwards_for(m, self.chunk_size)
        for row, j in enumerate(rep_positions):
            if pending_keys[j] is not None:
                self._cache_put(pending_keys[j], bool(verdicts[row]))
        for j, i in enumerate(pending_idx):
            results[i] = verdicts[row_of[j]]
        return results


def _scaled_rows(tiles: np.ndarray, indices: list) -> np.ndarray:
    """``(m, 1, 32, 32)`` model rows of ``tiles[indices]``, scaled to
    [0, 1] in place (float32 in, float32 division)."""
    rows = tiles[indices].reshape(len(indices), 1, TILE, TILE)
    np.divide(rows, 255.0, out=rows)
    return rows


class TextVerifier(_Verifier):
    """Text model wrapper: glyph tile vs expected character."""

    def verify_tiles(self, tiles, chars: list) -> np.ndarray:
        """Match verdicts for (tile, expected char) pairs.

        ``tiles`` is an ``(N, 32, 32)`` array or a list of 32x32 tiles;
        either way the units are cast to float32 first, and the cache key
        digests the cast tile.
        """
        if len(tiles) != len(chars):
            raise ValueError(f"tiles/chars misaligned: {len(tiles)} vs {len(chars)}")
        tiles = _stack_tiles(tiles)
        if self.cache is None:
            keys = [None] * len(chars)
        else:
            keys = [
                f"text:{region_digest(tile)}:{collapse_char(char)}"
                for tile, char in zip(tiles, chars)
            ]

        def rows(indices):
            exp = np.zeros((len(indices), len(CHAR_TO_INDEX)), dtype=PLAN_DTYPE)
            for row, i in enumerate(indices):
                exp[row, CHAR_TO_INDEX[collapse_char(chars[i])]] = 1.0
            return _scaled_rows(tiles, indices), exp

        return self._verify(keys, rows, "forward.text")

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
        path (nominal round + retry rings).
        """
        plan = ValidationPlan()
        plan.add_cells(frame_pixels, cells, offset_x, offset_y, background)
        return self.execute_plan(plan)

    def execute_plan(self, plan: ValidationPlan) -> np.ndarray:
        """Verdicts for every text unit of a plan.

        One nominal round over all queued tiles, then — for units that
        fail and carry retry metadata — one round per offset ring of
        :data:`RETRY_OFFSETS` across all failing units of the frame at
        once, each re-extracting the failing cells at that shift.
        """
        verdicts = self.verify_tiles(plan.text_tiles, plan.text_chars)
        retries = plan.text_retries
        failing = [i for i, v in enumerate(verdicts) if not v and retries[i] is not None]
        rounds = 0
        for dx, dy in self.RETRY_OFFSETS:
            if not failing:
                break
            rounds += 1
            ring = []
            for i in failing:
                frame_pixels, cell, offset_x, offset_y, background = retries[i]
                ring.append(
                    glyph_tile_from_frame(frame_pixels, cell, offset_x + dx, offset_y + dy, background)
                )
            retry = self.verify_tiles(ring, [plan.text_chars[i] for i in failing])
            still = []
            for j, i in enumerate(failing):
                if retry[j]:
                    verdicts[i] = True
                else:
                    still.append(i)
            failing = still
        plan.text_retry_rounds = rounds
        return verdicts


class ImageVerifier(_Verifier):
    """Graphics model wrapper: 32x32 observed/expected region matching."""

    def verify_pairs(self, observed, expected) -> np.ndarray:
        """Match verdicts for 32x32 observed/expected tile pairs.

        ``observed`` and ``expected`` are ``(N, 32, 32)`` arrays or lists
        of N tiles, cast to float32 before digesting and scaling.
        """
        if len(observed) != len(expected):
            raise ValueError(f"observed/expected misaligned: {len(observed)} vs {len(expected)}")
        observed = _stack_tiles(observed)
        expected = _stack_tiles(expected)
        if self.cache is None:
            keys = [None] * len(observed)
        else:
            keys = [
                f"img:{region_digest(obs)}:{region_digest(exp)}"
                for obs, exp in zip(observed, expected)
            ]

        def rows(indices):
            return _scaled_rows(observed, indices), _scaled_rows(expected, indices)

        return self._verify(keys, rows, "forward.image")

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

        All tile pairs of all regions go through one :meth:`verify_pairs`
        call; each group's verdict is the AND over its tile range.
        """
        verdicts = self.verify_pairs(plan.image_observed, plan.image_expected)
        return [
            bool(np.all(verdicts[start:stop])) if stop > start else True
            for start, stop in plan.image_groups
        ]
