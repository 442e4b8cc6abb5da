"""Classical computer-vision primitives used by vWitness (OpenCV substitute).

The paper's prototype uses OpenCV for frame-buffer processing: cropping
element regions, locating the browser viewport inside the expected "long"
page appearance, differencing consecutive screenshots, and extracting
point-of-focus (POF) cues from pixels.  This package provides exactly those
primitives on top of numpy.

All images in this package are 2-D ``float64`` numpy arrays in ``[0, 255]``
(grayscale).  The :class:`~repro.vision.image.Image` wrapper adds bounds-
checked crop/paste and convenience constructors but plain arrays are
accepted everywhere.
"""

from repro.vision.image import Image, as_array, to_uint8
from repro.vision.ops import (
    box_blur,
    convolve2d,
    dilate,
    erode,
    gaussian_blur,
    gaussian_kernel,
    max_pool,
    resize_nearest,
    sobel_edges,
)
from repro.vision.match import (
    MatchResult,
    PageSpectrum,
    best_vertical_offset,
    match_template,
    normalized_cross_correlation,
)
from repro.vision.diff import DiffRegion, changed_regions, frame_difference
from repro.vision.components import Rect, bounding_rect, connected_components, find_rectangles
from repro.vision.hashing import difference_hash, hamming_distance, region_digest

__all__ = [
    "Image",
    "as_array",
    "to_uint8",
    "convolve2d",
    "gaussian_kernel",
    "gaussian_blur",
    "box_blur",
    "sobel_edges",
    "erode",
    "dilate",
    "max_pool",
    "resize_nearest",
    "MatchResult",
    "PageSpectrum",
    "normalized_cross_correlation",
    "match_template",
    "best_vertical_offset",
    "frame_difference",
    "changed_regions",
    "DiffRegion",
    "Rect",
    "connected_components",
    "bounding_rect",
    "find_rectangles",
    "difference_hash",
    "hamming_distance",
    "region_digest",
]
