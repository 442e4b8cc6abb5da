"""Connected components and rectangle geometry.

POF extraction (focus outlines, selection highlights) and differential
detection both reduce to "find the connected blobs in this boolean mask
and describe them as rectangles".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle in web coordinates ``(x, y, w, h)``."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self) -> None:
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"Rect must have positive size, got {self.w}x{self.h}")

    @property
    def x2(self) -> int:
        return self.x + self.w

    @property
    def y2(self) -> int:
        return self.y + self.h

    @property
    def area(self) -> int:
        return self.w * self.h

    @property
    def center(self) -> tuple:
        return (self.x + self.w // 2, self.y + self.h // 2)

    def contains_point(self, px: int, py: int) -> bool:
        return self.x <= px < self.x2 and self.y <= py < self.y2

    def contains(self, other: "Rect") -> bool:
        return (
            self.x <= other.x
            and self.y <= other.y
            and other.x2 <= self.x2
            and other.y2 <= self.y2
        )

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.x >= self.x2 or other.x2 <= self.x or other.y >= self.y2 or other.y2 <= self.y
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        x = max(self.x, other.x)
        y = max(self.y, other.y)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x2 <= x or y2 <= y:
            return None
        return Rect(x, y, x2 - x, y2 - y)

    def union(self, other: "Rect") -> "Rect":
        x = min(self.x, other.x)
        y = min(self.y, other.y)
        x2 = max(self.x2, other.x2)
        y2 = max(self.y2, other.y2)
        return Rect(x, y, x2 - x, y2 - y)

    def translated(self, dx: int, dy: int) -> "Rect":
        return Rect(self.x + dx, self.y + dy, self.w, self.h)

    def expanded(self, margin: int) -> "Rect":
        """Grow on all sides by ``margin`` (a negative margin shrinks).

        Not clamped: the result may reach past any frame, and shrinking
        to a non-positive size raises ``ValueError``.
        """
        return Rect(self.x - margin, self.y - margin, self.w + 2 * margin, self.h + 2 * margin)

    def as_tuple(self) -> tuple:
        return (self.x, self.y, self.w, self.h)


def bounding_rect(mask) -> Rect | None:
    """Tight bounding rectangle of the True pixels in a boolean mask."""
    arr = np.asarray(mask, dtype=bool)
    ys, xs = np.nonzero(arr)
    if ys.size == 0:
        return None
    return Rect(int(xs.min()), int(ys.min()), int(xs.max() - xs.min() + 1), int(ys.max() - ys.min() + 1))


def label_components(mask, connectivity: int = 8) -> tuple:
    """``(labels, boxes)`` of the connected True-blobs in ``mask``: the
    label image (blob ``i`` of ``boxes`` carries label ``i + 1``) and
    each blob's bounding box ``(y0, x0, y1, x1)`` (ends exclusive), in
    label order: the raster order of each blob's first pixel.
    """
    from scipy import ndimage

    arr = np.asarray(mask, dtype=bool)
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    structure = np.ones((3, 3), dtype=bool) if connectivity == 8 else None
    labels, count = ndimage.label(arr, structure=structure)
    boxes = [
        (ys.start, xs.start, ys.stop, xs.stop)
        for ys, xs in ndimage.find_objects(labels, max_label=count)
    ]
    return labels, boxes


def component_boxes(mask, connectivity: int = 8) -> list[tuple]:
    """Bounding boxes ``(y0, x0, y1, x1)`` (ends exclusive) of the
    connected True-blobs in ``mask``, in label order: the raster order of
    each blob's first pixel.

    Plain tuples, so callers can filter hundreds of blobs by size before
    building a :class:`Rect` for the few they keep.
    """
    return label_components(mask, connectivity)[1]


def box_rect(box: tuple) -> Rect:
    """The :class:`Rect` of a ``(y0, x0, y1, x1)`` box."""
    y0, x0, y1, x1 = box
    return Rect(int(x0), int(y0), int(x1 - x0), int(y1 - y0))


def box_union(a: tuple, b: tuple) -> tuple:
    """Bounding box of two ``(y0, x0, y1, x1)`` boxes."""
    return (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))


def connected_components(mask, connectivity: int = 8) -> list[Rect]:
    """Bounding rectangles of the connected True-blobs in ``mask``.

    Labelled with ``scipy.ndimage`` (the hot path of differential
    detection and POF extraction); rectangles come back sorted by reading
    order (top-to-bottom, then left-to-right).
    """
    rects = [box_rect(box) for box in component_boxes(mask, connectivity)]
    rects.sort(key=lambda r: (r.y, r.x))
    return rects


def find_rectangles(
    mask,
    min_width: int = 4,
    min_height: int = 4,
    max_fill: float = 0.6,
    min_border_cover: float = 0.75,
) -> list[Rect]:
    """Find hollow rectangular outlines in a boolean mask.

    A focus outline is a thin rectangle of accent-colored pixels around a
    field.  A component qualifies when its bounding box is mostly *empty*
    inside (``max_fill``) while its border rows/columns are mostly covered
    (``min_border_cover``).
    """
    arr = np.asarray(mask, dtype=bool)
    outlines = []
    for y0, x0, y1, x1 in component_boxes(arr):
        if x1 - x0 < min_width or y1 - y0 < min_height:
            continue
        if is_hollow(arr[y0:y1, x0:x1], max_fill, min_border_cover):
            outlines.append(box_rect((y0, x0, y1, x1)))
    outlines.sort(key=lambda r: (r.y, r.x))
    return outlines


def is_hollow(box_mask: np.ndarray, max_fill: float, min_border_cover: float) -> bool:
    """:func:`find_rectangles`' test of one component's bounding box
    (every True pixel in it, whichever blob it belongs to): mostly empty
    inside, border rows and columns mostly covered."""
    if box_mask.mean() > max_fill:
        return False
    border = np.concatenate(
        [box_mask[0, :], box_mask[-1, :], box_mask[:, 0], box_mask[:, -1]]
    )
    return border.mean() >= min_border_cover
