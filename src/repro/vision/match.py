"""Template matching and viewport localisation.

vWitness determines the browser's current view port by sliding the sampled
frame over the VSPEC's "long" expected appearance and picking the vertical
offset with the best match (paper §III-C1).  Scrollable elements reuse the
same vertical search over their nested VSPECs.

The search is exhaustive: every offset is scored.  Following Lewis, *Fast
Normalized Cross-Correlation* (1995), the zero-normalized
cross-correlation (NCC) splits into a correlation numerator, which one FFT
along the row axis gives at every offset at once, and per-window sums and
sums of squares, which row cumulative sums give.  A transform length of at
least the page height is enough: the circular wrap never reaches the
offsets searched.  The page's half of that work is a :class:`PageSpectrum`,
which a caller searching one page repeatedly keeps and refreshes region by
region as the page changes, lazily: edits are recorded and re-transformed
by the next search, so a page edited many times between searches (typing
while the viewport is tracked rather than searched) pays for them once.
The offsets the FFT scores cannot settle are re-scored with
:func:`normalized_cross_correlation` itself: those within
:data:`RESCORE_MARGIN` of the best, and near-constant windows (scored by
NCC's intensity fallback, prefiltered with per-row min/max).  So the
result is the offset of the highest NCC, and its score is that function's
value, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vision.image import as_array


@dataclass(frozen=True)
class MatchResult:
    """Outcome of a template search.

    Attributes:
        offset: best offset along the searched axis (pixels).
        score: normalized correlation score in [-1, 1]; 1.0 is a perfect
            match up to affine intensity changes.
    """

    offset: int
    score: float


#: NCC's intensity-match fallback for zero-variance patches: ``np.allclose``
#: with these tolerances.
_FALLBACK_ATOL = 2.0
_FALLBACK_RTOL = 1e-5

#: Offsets whose FFT score is within this of the best are re-scored with
#: :func:`normalized_cross_correlation` (FFT scores of non-flat windows
#: are within ~1e-13 of it on real pages).
RESCORE_MARGIN = 1e-6

#: Windows whose pixel range is at most this are near-constant: their
#: variance (>= range**2 / 2) is too small for the cumulative sums, so
#: :func:`normalized_cross_correlation` scores them instead.
FLAT_RANGE = 16.0


def normalized_cross_correlation(patch_a, patch_b) -> float:
    """Zero-normalized cross-correlation of two same-shape patches.

    Returns 1.0 for patches that are identical up to brightness/contrast,
    and values near 0 for unrelated content.  Two constant patches compare
    by their mean intensity instead (NCC is undefined at zero variance).
    """
    a = as_array(patch_a).ravel()
    b = as_array(patch_b).ravel()
    if a.shape != b.shape:
        raise ValueError(f"NCC requires equal shapes, got {a.shape} vs {b.shape}")
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a @ a) * (b @ b))
    if denom < 1e-12:
        # Both (or one) patches are constant: fall back to intensity match.
        close = np.allclose(patch_a, patch_b, atol=_FALLBACK_ATOL, rtol=_FALLBACK_RTOL)
        return 1.0 if close else 0.0
    return float((a @ b) / denom)


class PageSpectrum:
    """The page side of the viewport search, kept between searches.

    Holds the page raster ``pixels`` (by reference) and, from the first
    search on, what every search of it needs: the real FFT along the row
    axis of each page column (centred on the page mean, zero-padded to a
    fast transform length of at least the page height), and per-row sum,
    sum of squares, minimum and maximum.  A caller that edits a rectangle
    of ``pixels`` in place calls :meth:`update` with it.  Nothing is
    computed until a search needs it, so a page that is never searched (it
    fits the display) costs nothing, and the same holds for edits:
    :meth:`update` only records the rectangle, and the next search (or
    :meth:`copy`) re-transforms the recorded rectangles' columns and
    re-summarises their rows.  A page edited on every keystroke but only
    scored at one known offset between searches (viewport tracking, see
    :meth:`repro.core.display.DisplayValidator.locate_viewport`) pays for
    its edits once, at the next search, instead of once per keystroke.
    """

    __slots__ = (
        "pixels", "length", "_center", "_columns", "_row_sum", "_row_sq", "_row_min", "_row_max",
        "_stale",
    )

    def __init__(self, pixels) -> None:
        self.pixels = as_array(pixels)
        self.length = _fft_length(self.pixels.shape[0])
        self._columns: np.ndarray | None = None
        self._stale: list = []

    def copy(self, pixels) -> "PageSpectrum":
        """This spectrum for ``pixels``, an equal copy of this page that the
        caller is about to edit (and :meth:`update`) on its own."""
        self._refresh()
        twin = PageSpectrum.__new__(PageSpectrum)
        twin.pixels = as_array(pixels)
        twin.length = self.length
        twin._columns = None
        twin._stale = []
        if self._columns is not None:
            twin._center = self._center
            twin._columns = self._columns.copy()
            twin._row_sum = self._row_sum.copy()
            twin._row_sq = self._row_sq.copy()
            twin._row_min = self._row_min.copy()
            twin._row_max = self._row_max.copy()
        return twin

    def update(self, box) -> None:
        """Note that the caller changed ``box`` (a :class:`Rect`) of ``pixels``.

        Only recorded (once per distinct box): the next search or
        :meth:`copy` refreshes it from the pixels as they are then.
        """
        if self._columns is not None and box not in self._stale:
            self._stale.append(box)

    def _refresh(self) -> None:
        """Re-transform the columns and re-summarise the rows of every
        recorded box, each exactly as an immediate refresh would."""
        for box in self._stale:
            x0, x1 = max(box.x, 0), min(box.x2, self.pixels.shape[1])
            y0, y1 = max(box.y, 0), min(box.y2, self.pixels.shape[0])
            if x1 <= x0 or y1 <= y0:
                continue
            self._columns[:, x0:x1] = self._transform(self.pixels[:, x0:x1])
            self._summarise_rows(y0, y1)
        self._stale.clear()

    def _ensure(self) -> None:
        if self._columns is not None:
            self._refresh()
            return
        height = self.pixels.shape[0]
        self._center = float(self.pixels.mean())
        self._columns = self._transform(self.pixels)
        self._row_sum = np.empty(height, dtype=self.pixels.dtype)
        self._row_sq = np.empty(height, dtype=self.pixels.dtype)
        self._row_min = np.empty(height, dtype=self.pixels.dtype)
        self._row_max = np.empty(height, dtype=self.pixels.dtype)
        self._summarise_rows(0, height)

    def _transform(self, columns: np.ndarray) -> np.ndarray:
        """Conjugated row-axis spectra of page ``columns`` (one column each)."""
        return np.conj(np.fft.rfft(columns - self._center, n=self.length, axis=0))

    def _summarise_rows(self, y0: int, y1: int) -> None:
        rows = self.pixels[y0:y1]
        centred = rows - self._center
        self._row_sum[y0:y1] = centred.sum(axis=1)
        self._row_sq[y0:y1] = np.einsum("ij,ij->i", centred, centred)
        self._row_min[y0:y1] = rows.min(axis=1)
        self._row_max[y0:y1] = rows.max(axis=1)

    def _search(self, frame: np.ndarray) -> MatchResult:
        """Best NCC offset of ``frame`` (same width, at most as tall)."""
        self._ensure()
        page = self.pixels
        n = frame.shape[0]
        count = page.shape[0] - n + 1
        size = frame.size
        lo = np.lib.stride_tricks.sliding_window_view(self._row_min, n).min(axis=1)
        hi = np.lib.stride_tricks.sliding_window_view(self._row_max, n).max(axis=1)

        a = frame.ravel()
        a = a - a.mean()  # centred exactly as normalized_cross_correlation does
        frame_var = float(a @ a)
        if frame_var == 0.0:
            # A constant frame: NCC takes its intensity fallback at every
            # offset and scores 1.0 or 0.0, so the lowest window that is
            # within the fallback's tolerance everywhere wins.  Min/max
            # bound that tolerance test from outside.
            level = float(frame.flat[0])
            tol = _FALLBACK_ATOL + _FALLBACK_RTOL * np.maximum(np.abs(lo), np.abs(hi)) + 1e-9
            for off in np.flatnonzero((np.abs(hi - level) <= tol) & (np.abs(level - lo) <= tol)):
                score = normalized_cross_correlation(frame, page[off : off + n])
                if score == 1.0:
                    return MatchResult(int(off), score)
            return MatchResult(0, normalized_cross_correlation(frame, page[:n]))

        # Exact scores of constant windows NCC centres to exactly zero: its
        # intensity fallback, 1.0 or 0.0, read off the frame's min/max.
        exact = np.full(count, -np.inf, dtype=page.dtype)
        constant = lo == hi
        fmin, fmax = float(frame.min()), float(frame.max())
        for level in np.unique(lo[constant]):
            where = constant & (lo == level)
            first = int(np.argmax(where))
            if page[first : first + n].ravel().mean() != level:
                continue  # centred to a tiny nonzero constant: re-scored below
            deviation = max(abs(fmax - level), abs(fmin - level))
            exact[where] = 1.0 if deviation <= _FALLBACK_ATOL + _FALLBACK_RTOL * abs(level) else 0.0
        # Near-constant windows keep the shipped NCC: their variance is
        # too small for the running sums to resolve.
        flat = hi - lo <= FLAT_RANGE
        rescore = flat & ~np.isfinite(exact)

        # Every other window: FFT numerator over cumulative-sum variance.
        spectrum = np.fft.rfft(a.reshape(frame.shape), n=self.length, axis=0)
        cross = np.einsum("ij,ij->i", spectrum, self._columns)  # conj of the page-side product
        numerator = np.fft.irfft(np.conj(cross), n=self.length)[:count]
        sums = np.concatenate(([0.0], np.cumsum(self._row_sum)))
        squares = np.concatenate(([0.0], np.cumsum(self._row_sq)))
        window_sum = sums[n:] - sums[:count]
        window_var = squares[n:] - squares[:count] - window_sum * window_sum / size
        with np.errstate(divide="ignore", invalid="ignore"):
            approx = numerator / np.sqrt(frame_var * window_var)
        approx[flat] = -np.inf

        top = max(float(approx.max()), float(exact.max()))
        picks = rescore | (approx >= top - RESCORE_MARGIN)
        if exact.max() >= top - RESCORE_MARGIN:
            picks[int(np.argmax(exact))] = True  # lowest window of the best exact score
        best = MatchResult(0, -np.inf)
        for off in np.flatnonzero(picks):  # ascending: ties keep the lowest offset
            score = normalized_cross_correlation(frame, page[off : off + n])
            if score > best.score:
                best = MatchResult(int(off), score)
        return best


def best_vertical_offset(frame, long_image) -> MatchResult:
    """Locate ``frame`` inside ``long_image`` by vertical offset.

    ``long_image`` must have the same width as ``frame`` and at least its
    height (the VSPEC expected appearance is rendered at the client width,
    at the page's full height); it may be a raster or a
    :class:`PageSpectrum` of one, which a caller searching the same page
    repeatedly keeps.  Every offset is scored: the returned one has the
    highest :func:`normalized_cross_correlation` of all, exact ties going
    to the lowest offset, and the returned score is that function's value
    there, bit for bit.
    """
    f = as_array(frame)
    page = long_image if isinstance(long_image, PageSpectrum) else PageSpectrum(long_image)
    long_arr = page.pixels
    if f.shape[1] != long_arr.shape[1]:
        raise ValueError(
            f"frame width {f.shape[1]} != expected appearance width {long_arr.shape[1]}"
        )
    if f.shape[0] > long_arr.shape[0]:
        raise ValueError(
            f"frame height {f.shape[0]} exceeds expected appearance height {long_arr.shape[0]}"
        )
    if f.shape[0] == long_arr.shape[0]:
        return MatchResult(0, normalized_cross_correlation(f, long_arr))
    return page._search(f)


def _fft_length(n: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= ``n`` (a fast transform length)."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def match_template(image, template, threshold: float = 0.95) -> list[tuple[int, int, float]]:
    """Find all placements of ``template`` in ``image`` scoring >= threshold.

    Returns ``(x, y, score)`` tuples sorted by descending score, with greedy
    non-maximum suppression so overlapping detections collapse to one.
    Used by POF extraction to find carets and focus-outline corners.
    """
    img = as_array(image)
    tmp = as_array(template)
    th, tw = tmp.shape
    if th > img.shape[0] or tw > img.shape[1]:
        return []
    windows = np.lib.stride_tricks.sliding_window_view(img, (th, tw))
    wh, ww = windows.shape[:2]
    flat = windows.reshape(wh * ww, th * tw)
    t = tmp.ravel() - tmp.mean()
    t_norm = np.sqrt(t @ t)
    means = flat.mean(axis=1, keepdims=True)
    centered = flat - means
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    if t_norm < 1e-12:
        scores = np.where(norms < 1e-12, 1.0, 0.0)
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = (centered @ t) / (norms * t_norm)
        scores = np.nan_to_num(scores, nan=0.0)
    hits = np.flatnonzero(scores >= threshold)
    ranked = sorted(((float(scores[i]), int(i % ww), int(i // ww)) for i in hits), reverse=True)
    kept: list[tuple[int, int, float]] = []
    for score, x, y in ranked:
        if any(abs(x - kx) < tw and abs(y - ky) < th for kx, ky, _s in kept):
            continue
        kept.append((x, y, score))
    return kept
