"""Procedural icons and natural-texture patches.

Stand-ins for the two image corpora the paper trains its graphics verifier
on: Google's Material icon set and a subset of CIFAR-10.  Icons are drawn
from vector strokes (so they inherit the same benign rendering variation as
text); natural patches are band-limited random fields, which share CIFAR's
key property for this task — smooth, texture-like content with no glyph
structure, so injected text is a detectable anomaly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.raster.glyphs import rasterize_strokes, _arc
from repro.raster.stacks import RenderStack, reference_stack
from repro.raster.text import render_text_line
from repro.vision.image import DTYPE, Image
from repro.vision.ops import gaussian_blur

_ICON_STROKES = {
    "home": [
        [(0.1, 0.5), (0.5, 0.12), (0.9, 0.5)],
        [(0.22, 0.45), (0.22, 0.9), (0.78, 0.9), (0.78, 0.45)],
        [(0.42, 0.9), (0.42, 0.62), (0.58, 0.62), (0.58, 0.9)],
    ],
    "search": [
        _arc(0.42, 0.42, 0.26, 0.26, 0, 360, 14),
        [(0.62, 0.62), (0.88, 0.88)],
    ],
    "gear": [
        _arc(0.5, 0.5, 0.24, 0.24, 0, 360, 14),
        _arc(0.5, 0.5, 0.1, 0.1, 0, 360, 10),
        [(0.5, 0.14), (0.5, 0.26)],
        [(0.5, 0.74), (0.5, 0.86)],
        [(0.14, 0.5), (0.26, 0.5)],
        [(0.74, 0.5), (0.86, 0.5)],
        [(0.25, 0.25), (0.33, 0.33)],
        [(0.75, 0.25), (0.67, 0.33)],
        [(0.25, 0.75), (0.33, 0.67)],
        [(0.75, 0.75), (0.67, 0.67)],
    ],
    "envelope": [
        [(0.1, 0.22), (0.9, 0.22), (0.9, 0.78), (0.1, 0.78), (0.1, 0.22)],
        [(0.1, 0.25), (0.5, 0.55), (0.9, 0.25)],
    ],
    "arrow-right": [
        [(0.12, 0.5), (0.85, 0.5)],
        [(0.6, 0.28), (0.88, 0.5), (0.6, 0.72)],
    ],
    "star": [
        [(0.5, 0.1), (0.62, 0.4), (0.92, 0.4), (0.68, 0.6), (0.78, 0.9),
         (0.5, 0.72), (0.22, 0.9), (0.32, 0.6), (0.08, 0.4), (0.38, 0.4), (0.5, 0.1)],
    ],
    "person": [
        _arc(0.5, 0.3, 0.16, 0.16, 0, 360, 12),
        _arc(0.5, 0.95, 0.32, 0.42, 180, 360, 10),
    ],
    "cart": [
        [(0.08, 0.15), (0.22, 0.15), (0.35, 0.62), (0.8, 0.62), (0.9, 0.28), (0.3, 0.28)],
        _arc(0.42, 0.8, 0.07, 0.07, 0, 360, 8),
        _arc(0.74, 0.8, 0.07, 0.07, 0, 360, 8),
    ],
    "lock": [
        [(0.25, 0.45), (0.75, 0.45), (0.75, 0.9), (0.25, 0.9), (0.25, 0.45)],
        _arc(0.5, 0.45, 0.17, 0.25, 180, 360, 10),
        [(0.5, 0.6), (0.5, 0.75)],
    ],
    "bell": [
        _arc(0.5, 0.45, 0.24, 0.3, 180, 360, 10),
        [(0.26, 0.45), (0.26, 0.68), (0.16, 0.78), (0.84, 0.78), (0.74, 0.68), (0.74, 0.45)],
        _arc(0.5, 0.84, 0.07, 0.06, 0, 180, 6),
    ],
    "checkmark": [
        [(0.2, 0.55), (0.42, 0.78), (0.82, 0.25)],
    ],
    "cross": [
        [(0.25, 0.25), (0.75, 0.75)],
        [(0.75, 0.25), (0.25, 0.75)],
    ],
}


def icon_names() -> list:
    """The names of all available procedural icons."""
    return sorted(_ICON_STROKES)


def render_icon(
    name: str,
    size: int = 32,
    stack: RenderStack | None = None,
    foreground: float = 40.0,
    background: float | None = None,
) -> Image:
    """Render a named icon into a square tile under a rendering stack."""
    if name not in _ICON_STROKES:
        raise KeyError(f"unknown icon {name!r}; available: {icon_names()}")
    stack = stack or reference_stack()
    bg = stack.background if background is None else background
    dx = 0.0 if stack.hinting else stack.subpixel_x
    dy = 0.0 if stack.hinting else stack.subpixel_y
    cov = rasterize_strokes(
        _ICON_STROKES[name],
        size,
        half_width=max(0.6, size / 18.0),
        aa=stack.aa,
        dx=dx,
        dy=dy,
    )
    cov = np.clip(np.power(cov, stack.gamma) * stack.intensity, 0.0, 1.0)
    pixels = bg + (foreground - bg) * cov
    return Image(stack.apply_noise(pixels, salt=abs(hash(name)) % 997))


def natural_patch(seed: int, size: int = 32, stack: RenderStack | None = None) -> Image:
    """A band-limited random texture patch (CIFAR-10 stand-in).

    Built from three octaves of blurred noise plus a smooth gradient, which
    yields patches with coherent large-scale structure (like photographs)
    rather than white noise.
    """
    stack = stack or reference_stack()
    rng = np.random.default_rng(seed)
    field = np.zeros((size, size), dtype=DTYPE)
    for octave, sigma in ((0, 6.0), (1, 3.0), (2, 1.2)):
        noise = rng.normal(0.0, 1.0, (size, size))
        field += gaussian_blur(noise, sigma) * (2.0 ** -octave)
    gx, gy = rng.uniform(-1.0, 1.0, 2)
    ys, xs = np.meshgrid(np.linspace(-1, 1, size), np.linspace(-1, 1, size), indexing="ij")
    field += 0.4 * (gx * xs + gy * ys)
    field = (field - field.min()) / max(field.max() - field.min(), 1e-9)
    pixels = 30.0 + field * 200.0
    # Rendering-stack effects: gamma on normalized intensity plus dither.
    pixels = 255.0 * np.power(pixels / 255.0, stack.gamma)
    return Image(stack.apply_noise(pixels, salt=seed))


def icon_with_text(
    name_or_seed,
    text: str,
    size: int = 32,
    stack: RenderStack | None = None,
) -> Image:
    """An icon or natural patch with text injected into it.

    The paper trains the graphics model with "false data points with text
    in the images to ensure that unexpected text in the images will be
    detected" (§IV-A).  This helper builds exactly those negatives.
    """
    stack = stack or reference_stack()
    if isinstance(name_or_seed, str):
        base = render_icon(name_or_seed, size=size, stack=stack)
    else:
        base = natural_patch(int(name_or_seed), size=size, stack=stack)
    if not text:
        raise ValueError("icon_with_text requires non-empty text")
    char_size = max(8, size // max(len(text), 2))
    line = render_text_line(text, size=char_size, stack=stack, background=255.0)
    w = min(line.width, size - 2)
    h = min(line.height, size - 2)
    patch = line.crop(0, 0, w, h)
    x = (size - w) // 2
    y = (size - h) // 2
    # Multiply-blend so the text darkens whatever is underneath.
    region = base.pixels[y : y + h, x : x + w]
    base.pixels[y : y + h, x : x + w] = region * (patch.pixels / 255.0)
    return base


def rotate_icon_90(image: Image) -> Image:
    """Rotate an icon tile by 90 degrees (tamper-negative construction)."""
    return Image(np.rot90(image.pixels).copy())


def synthetic_logo(seed: int, width: int, height: int) -> Image:
    """A simple site "logo": colored bands plus an icon, for page headers."""
    rng = np.random.default_rng(seed)
    canvas = Image.blank(width, height, 255.0)
    band_h = max(2, height // 4)
    for i in range(3):
        shade = float(rng.uniform(60, 200))
        y = min(i * band_h, height - band_h)
        canvas.fill_rect(0, y, width, band_h, shade)
    icon = render_icon(icon_names()[seed % len(icon_names())], size=min(height, width))
    canvas.blend(icon, 0, 0, alpha=0.6)
    return canvas
