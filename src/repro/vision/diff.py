"""Frame differencing for differential detection (paper §IV-A).

Because vWitness screenshots frequently, unchanged UI does not need to be
re-validated: only the regions that changed between two consecutive frames
are passed to the CNN verifiers.  This module computes those regions.
Past one pass over the two rasters it is given (the difference and its
row/column extent), the work is confined to the changed area: a typed
glyph costs a few hundred pixels of dilation and labelling.  The session's
:class:`~repro.core.caches.DifferentialDetector` hands it only the crop
around what changed since the last full diff, so per sample not even
that pass covers the whole frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vision.components import Rect, connected_components
from repro.vision.image import as_array
from repro.vision.ops import dilate


@dataclass(frozen=True)
class DiffRegion:
    """A changed rectangle plus the magnitude of the change inside it."""

    rect: Rect
    max_delta: float
    changed_pixels: int


def frame_difference(frame_a, frame_b, threshold: float = 4.0) -> np.ndarray:
    """Boolean mask of pixels whose intensity changed by more than ``threshold``.

    The threshold absorbs sub-quantization noise (e.g. blending rounding)
    without hiding real content changes, which move intensities by tens of
    levels even under anti-aliasing.
    """
    a = as_array(frame_a)
    b = as_array(frame_b)
    if a.shape != b.shape:
        raise ValueError(f"frames must share a shape, got {a.shape} vs {b.shape}")
    return np.abs(a - b) > threshold


def changed_regions(
    frame_a,
    frame_b,
    threshold: float = 4.0,
    merge_radius: int = 3,
    min_pixels: int = 1,
) -> list[DiffRegion]:
    """Rectangles covering everything that changed between two frames.

    Changed pixels are dilated by ``merge_radius`` so that nearby changes
    (e.g. the glyphs of a word being typed) merge into one region, then
    connected components give the bounding rectangles.  Returns an empty
    list when the frames are effectively identical.

    Only the bounding box of the changed pixels, grown by
    ``merge_radius`` and clipped to the frame, is dilated and labelled:
    dilation never reaches past it, so the regions are exactly those of
    the whole frame, at a cost that follows the size of the change.
    """
    a = as_array(frame_a)
    b = as_array(frame_b)
    if a.shape != b.shape:
        raise ValueError(f"frames must share a shape, got {a.shape} vs {b.shape}")
    delta = np.abs(a - b)
    changed = delta > threshold
    rows = np.flatnonzero(changed.any(axis=1))
    if not rows.size:
        return []
    cols = np.flatnonzero(changed.any(axis=0))
    radius = max(merge_radius, 0)
    y0 = max(int(rows[0]) - radius, 0)
    x0 = max(int(cols[0]) - radius, 0)
    y1 = min(int(rows[-1]) + 1 + radius, a.shape[0])
    x1 = min(int(cols[-1]) + 1 + radius, a.shape[1])
    changed = changed[y0:y1, x0:x1]
    delta = delta[y0:y1, x0:x1]
    mask = dilate(changed, merge_radius) if merge_radius > 0 else changed
    regions = []
    for rect in connected_components(mask):
        # Every changed pixel lies in the dilated mask, so the changed
        # pixels in the rectangle are exactly ``changed`` there.
        box = (slice(rect.y, rect.y2), slice(rect.x, rect.x2))
        count = int(np.count_nonzero(changed[box]))
        if count >= min_pixels:
            regions.append(
                DiffRegion(
                    rect=rect.translated(x0, y0),
                    max_delta=float(delta[box].max()),
                    changed_pixels=count,
                )
            )
    return regions
