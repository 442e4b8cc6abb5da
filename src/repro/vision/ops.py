"""Low-level raster operations: convolution, blurs, morphology, resampling.

These are the numpy stand-ins for the OpenCV filtering routines the
vWitness prototype uses.  They are deliberately simple — correctness and
predictability matter more here than raw throughput, and the sizes involved
(32x32 element tiles up to ~1280x4000 long screenshots) stay comfortable.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.vision.image import DTYPE, as_array


def convolve2d(image, kernel, pad_value: float = 0.0) -> np.ndarray:
    """Same-size 2-D correlation of ``image`` with ``kernel``.

    The border is padded with ``pad_value``.  (This is correlation rather
    than true convolution — the kernel is not flipped — matching the
    convention of CNN libraries and OpenCV's ``filter2D``.)
    """
    img = as_array(image)
    ker = np.asarray(kernel, dtype=DTYPE)
    if ker.ndim != 2:
        raise ValueError(f"kernel must be 2-D, got shape {ker.shape}")
    kh, kw = ker.shape
    ph, pw = kh // 2, kw // 2
    padded = np.pad(img, ((ph, kh - 1 - ph), (pw, kw - 1 - pw)), constant_values=pad_value)
    # Build a strided view of all kh x kw windows, then contract with the kernel.
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw))
    return np.einsum("ijkl,kl->ij", windows, ker)


def gaussian_kernel(sigma: float, radius: int | None = None) -> np.ndarray:
    """A normalized 2-D Gaussian kernel."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if radius is None:
        radius = max(1, int(np.ceil(2.5 * sigma)))
    ax = np.arange(-radius, radius + 1, dtype=DTYPE)
    g1 = np.exp(-(ax**2) / (2.0 * sigma**2))
    ker = np.outer(g1, g1)
    return ker / ker.sum()


def gaussian_blur(image, sigma: float) -> np.ndarray:
    """Gaussian blur with edge replication (separable, for speed)."""
    img = as_array(image)
    if sigma <= 0:
        return img.copy()
    radius = max(1, int(np.ceil(2.5 * sigma)))
    ax = np.arange(-radius, radius + 1, dtype=DTYPE)
    g = np.exp(-(ax**2) / (2.0 * sigma**2))
    g /= g.sum()
    padded = np.pad(img, ((radius, radius), (0, 0)), mode="edge")
    rows = np.lib.stride_tricks.sliding_window_view(padded, 2 * radius + 1, axis=0)
    out = rows @ g
    padded = np.pad(out, ((0, 0), (radius, radius)), mode="edge")
    cols = np.lib.stride_tricks.sliding_window_view(padded, 2 * radius + 1, axis=1)
    return cols @ g


def box_blur(image, radius: int) -> np.ndarray:
    """Mean filter over a (2r+1)^2 window, edge-replicated."""
    img = as_array(image)
    if radius <= 0:
        return img.copy()
    size = 2 * radius + 1
    padded = np.pad(img, radius, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (size, size))
    return windows.mean(axis=(2, 3))


def sobel_edges(image) -> np.ndarray:
    """Gradient magnitude via Sobel operators (used for POF outline cues)."""
    gx = convolve2d(image, [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]])
    gy = convolve2d(image, [[-1, -2, -1], [0, 0, 0], [1, 2, 1]])
    return np.hypot(gx, gy)


def erode(mask, radius: int = 1) -> np.ndarray:
    """Binary erosion with a square structuring element.

    Implemented as two separable passes of ``scipy.ndimage`` minimum
    filters (a square window factors into a horizontal and a vertical
    pass), which keeps per-frame differential detection cheap.
    """
    from scipy import ndimage

    arr = np.asarray(mask, dtype=bool)
    if radius <= 0:
        return arr.copy()
    size = 2 * radius + 1
    out = ndimage.minimum_filter1d(arr.view(np.uint8), size, axis=0, mode="constant", cval=1)
    out = ndimage.minimum_filter1d(out, size, axis=1, mode="constant", cval=1)
    return out.astype(bool)


def dilate(mask, radius: int = 1) -> np.ndarray:
    """Binary dilation with a square structuring element (separable)."""
    from scipy import ndimage

    arr = np.asarray(mask, dtype=bool)
    if radius <= 0:
        return arr.copy()
    size = 2 * radius + 1
    out = ndimage.maximum_filter1d(arr.view(np.uint8), size, axis=0, mode="constant", cval=0)
    out = ndimage.maximum_filter1d(out, size, axis=1, mode="constant", cval=0)
    return out.astype(bool)


def max_pool(image, factor: int) -> np.ndarray:
    """Downsample by taking the max of each ``factor`` x ``factor`` block."""
    img = as_array(image)
    if factor <= 0:
        raise ValueError(f"pooling factor must be positive, got {factor}")
    h = (img.shape[0] // factor) * factor
    w = (img.shape[1] // factor) * factor
    if h == 0 or w == 0:
        raise ValueError(f"image {img.shape} too small for pooling factor {factor}")
    blocks = img[:h, :w].reshape(h // factor, factor, w // factor, factor)
    return blocks.max(axis=(1, 3))


def resize_nearest(image, new_height: int, new_width: int) -> np.ndarray:
    """Nearest-neighbour resample (dynamically-scaled element support)."""
    img = as_array(image)
    if new_height <= 0 or new_width <= 0:
        raise ValueError(f"target size must be positive, got {new_height}x{new_width}")
    rows = np.minimum((np.arange(new_height) * img.shape[0] / new_height).astype(int), img.shape[0] - 1)
    cols = np.minimum((np.arange(new_width) * img.shape[1] / new_width).astype(int), img.shape[1] - 1)
    return img[np.ix_(rows, cols)]


#: Cached bilinear resample tables keyed by ``(src_h, src_w, dst_h,
#: dst_w)``: flat gather indices for the four neighbour taps plus the
#: interpolation weights.  Glyph extraction resizes the same handful of
#: geometries every frame, so the tables are computed once; the LRU
#: bound keeps pathological callers from accumulating tables.
_RESIZE_TABLES: "OrderedDict" = OrderedDict()
_RESIZE_TABLES_MAX = 32


def _resize_tables(src_h: int, src_w: int, new_height: int, new_width: int) -> tuple:
    key = (src_h, src_w, new_height, new_width)
    tables = _RESIZE_TABLES.get(key)
    if tables is not None:
        _RESIZE_TABLES.move_to_end(key)
        return tables
    ys = (np.arange(new_height) + 0.5) * src_h / new_height - 0.5
    xs = (np.arange(new_width) + 0.5) * src_w / new_width - 0.5
    ys = np.clip(ys, 0, src_h - 1)
    xs = np.clip(xs, 0, src_w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, src_h - 1)
    x1 = np.minimum(x0 + 1, src_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    tables = (
        y0[:, None] * src_w + x0[None, :],
        y0[:, None] * src_w + x1[None, :],
        y1[:, None] * src_w + x0[None, :],
        y1[:, None] * src_w + x1[None, :],
        wx,
        1.0 - wx,
        wy,
        1.0 - wy,
    )
    _RESIZE_TABLES[key] = tables
    if len(_RESIZE_TABLES) > _RESIZE_TABLES_MAX:
        _RESIZE_TABLES.popitem(last=False)
    return tables


def resize_bilinear(image, new_height: int, new_width: int) -> np.ndarray:
    """Bilinear resample; smoother than nearest, used when shrinking glyph tiles."""
    img = as_array(image)
    if new_height <= 0 or new_width <= 0:
        raise ValueError(f"target size must be positive, got {new_height}x{new_width}")
    src_h, src_w = img.shape
    i00, i01, i10, i11, wx, wx1m, wy, wy1m = _resize_tables(src_h, src_w, new_height, new_width)
    flat = img.reshape(-1)
    top = flat[i00] * wx1m + flat[i01] * wx
    bottom = flat[i10] * wx1m + flat[i11] * wx
    return top * wy1m + bottom * wy
