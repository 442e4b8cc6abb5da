"""Page renderer: element tree -> framebuffer pixels, including POF cues.

This is the untrusted client renderer.  It draws the point-of-focus cues
(focus outline, caret, selection highlight) that vWitness later *extracts
back out of the pixels* — the core of the paper's interaction validation.
The POF intensities live in :class:`POFStyle` so the trusted extractor and
this untrusted renderer agree on the convention, just as real browsers and
vWitness agree on standard focus-ring styling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.raster.icons import natural_patch, render_icon, synthetic_logo
from repro.raster.stacks import RenderStack, reference_stack
from repro.raster.text import render_text_line
from repro.vision.image import Image
from repro.vision.ops import resize_bilinear
from repro.web import elements as el
from repro.web import layout as lay


@dataclass(frozen=True)
class POFStyle:
    """Pixel conventions for point-of-focus cues.

    Intensities are chosen to be visually distinct bands: ink is ~0,
    borders ~90, background ~255.  The highlight is a light band behind
    text; the caret a dark 2px vertical bar; the focus outline a mid-gray
    2px ring offset 2px outside the field border.
    """

    outline_intensity: float = 120.0
    outline_thickness: int = 2
    outline_margin: int = 2
    caret_intensity: float = 30.0
    caret_width: int = 2
    #: Minimum height for a caret *detection*.  The rendered caret spans
    #: the input box interior (22px for the standard 30px box), while
    #: glyph strokes never exceed the text size (<=14px even with AA) —
    #: so 16 separates a real caret from an 'l'/'1'/'|' stem whose ink
    #: drifts into the caret intensity band on some rendering stacks.
    caret_min_height: int = 16
    highlight_intensity: float = 205.0
    border_intensity: float = 90.0
    #: Scrollable-list selected-row fill.  Deliberately outside the POF
    #: highlight band so a persisting list selection is element *state*,
    #: not a point-of-focus cue.
    list_selection_intensity: float = 235.0


DEFAULT_POF = POFStyle()

#: Input-field interior fill — the renderer's field background.  The
#: display validator composes tracked values against this same constant.
FIELD_BACKGROUND = 252.0


def draw_input_value(canvas: Image, box, value: str, text_size: int, stack: RenderStack, clear_interior: bool = False) -> None:
    """Draw an input's value text into its box rect.

    The single source of truth for field-value geometry (origin,
    truncation, background): :func:`_draw_input_box` renders with it and
    the display validator composes tracked state into expected
    appearances with it — keeping the two in lockstep is what makes
    stateful viewport matching faithful.  ``clear_interior`` wipes the
    inside of the box (preserving its border) first, for composing over
    a raster that may carry a previously drawn value.
    """
    if clear_interior:
        canvas.fill_rect(box.x + 1, box.y + 1, box.w - 2, box.h - 2, FIELD_BACKGROUND)
    if not value:
        return
    advance = lay.char_advance(text_size)
    max_chars = (box.w - 2 * lay.INPUT_PAD_X) // max(1, advance)
    origin_y = box.y + (box.h - text_size) // 2
    _draw_text(canvas, value[:max_chars], box.x + lay.INPUT_PAD_X, origin_y, text_size, stack)


@dataclass(frozen=True)
class FocusState:
    """Browser-side focus: which element has the POF and how it looks."""

    element_id: str
    caret_visible: bool = True


def _draw_text(canvas: Image, text: str, x: int, y: int, size: int, stack: RenderStack) -> None:
    line = render_text_line(text, size=size, stack=stack, background=255.0)
    w = min(line.width, canvas.width - x)
    h = min(line.height, canvas.height - y)
    if w <= 0 or h <= 0:
        return
    # Multiply-blend so text composes over non-white backgrounds.
    region = canvas.pixels[y : y + h, x : x + w]
    canvas.pixels[y : y + h, x : x + w] = region * (line.pixels[:h, :w] / 255.0)


def _draw_wrapped_text(canvas: Image, element: el.TextBlock, stack: RenderStack) -> None:
    rect = element.rect
    lines = lay.wrap_text(element.text, element.size, rect.w)
    for i, line in enumerate(lines):
        _draw_text(canvas, line, rect.x, rect.y + i * (element.size + 4), element.size, stack)


def _render_image_content(element: el.ImageElement, stack: RenderStack) -> Image:
    if element.kind == "icon":
        tile = render_icon(element.ref, size=max(element.width, element.height), stack=stack)
    elif element.kind == "patch":
        tile = natural_patch(int(element.ref), size=max(element.width, element.height), stack=stack)
    else:
        return synthetic_logo(int(element.ref), element.width, element.height)
    if tile.shape != (element.height, element.width):
        return Image(resize_bilinear(tile.pixels, element.height, element.width))
    return tile


def _draw_input_box(
    canvas: Image,
    element: el.TextInput,
    stack: RenderStack,
    pof: POFStyle,
    focus: FocusState | None,
) -> None:
    box = lay.input_box_rect(element)
    canvas.fill_rect(box.x, box.y, box.w, box.h, FIELD_BACKGROUND)
    canvas.draw_border(box.x, box.y, box.w, box.h, pof.border_intensity, 1)
    if element.label:
        _draw_text(canvas, element.label, element.rect.x, element.rect.y, lay.LABEL_SIZE, stack)
    focused = focus is not None and focus.element_id == element.element_id
    # Selection highlight behind the selected characters.
    if focused and element.selection:
        start, end = sorted(element.selection)
        start = max(0, start)
        end = min(len(element.value), end)
        if end > start:
            first = lay.char_cell_in_input(element, start)
            last = lay.char_cell_in_input(element, end - 1)
            canvas.fill_rect(
                first.x, first.y, last.x2 - first.x, first.h, pof.highlight_intensity
            )
    draw_input_value(canvas, box, element.value, element.text_size, stack)
    if focused:
        # Focus outline: a ring around the input box.
        ring = box.expanded(pof.outline_margin)
        if ring.x >= 0 and ring.y >= 0 and ring.x2 <= canvas.width and ring.y2 <= canvas.height:
            canvas.draw_border(ring.x, ring.y, ring.w, ring.h, pof.outline_intensity, pof.outline_thickness)
        # Caret (suppressed while a selection highlight is showing).
        if focus.caret_visible and not element.selection:
            cx = lay.caret_x(element)
            cy = box.y + 4
            if cx + pof.caret_width <= box.x2 - 1:
                canvas.draw_vline(cx, cy, box.h - 8, pof.caret_intensity, pof.caret_width)


def _draw_checkbox(canvas: Image, element: el.Checkbox, stack: RenderStack, pof: POFStyle, focus) -> None:
    rect = element.rect
    size = lay.CHECKBOX_SIZE
    cy = rect.y + (rect.h - size) // 2
    canvas.draw_border(rect.x, cy, size, size, pof.border_intensity, 1)
    if element.checked:
        mark = render_icon("checkmark", size=size - 4, stack=stack)
        canvas.blend(mark, rect.x + 2, cy + 2, alpha=0.9)
    _draw_text(canvas, element.label, rect.x + size + 8, rect.y + (rect.h - lay.LABEL_SIZE) // 2, lay.LABEL_SIZE, stack)
    if focus is not None and focus.element_id == element.element_id:
        outline = Rect_expand_safe(element.rect, pof.outline_margin, canvas)
        if outline is not None:
            canvas.draw_border(outline.x, outline.y, outline.w, outline.h, pof.outline_intensity, pof.outline_thickness)


def _draw_radio_group(canvas: Image, element: el.RadioGroup, stack: RenderStack, pof: POFStyle, focus) -> None:
    rect = element.rect
    size = lay.RADIO_SIZE
    for i, option in enumerate(element.options):
        ry = rect.y + i * lay.ROW_HEIGHT + (lay.ROW_HEIGHT - size) // 2
        canvas.draw_border(rect.x, ry, size, size, pof.border_intensity, 1)
        canvas.draw_border(rect.x + 1, ry + 1, size - 2, size - 2, 252.0, 1)
        if element.selected == i:
            canvas.fill_rect(rect.x + 4, ry + 4, size - 8, size - 8, 40.0)
        _draw_text(canvas, option, rect.x + size + 8, rect.y + i * lay.ROW_HEIGHT + 3, lay.LABEL_SIZE, stack)
    if focus is not None and focus.element_id == element.element_id:
        outline = rect.expanded(pof.outline_margin)
        if outline.x >= 0 and outline.y >= 0 and outline.x2 <= canvas.width and outline.y2 <= canvas.height:
            canvas.draw_border(outline.x, outline.y, outline.w, outline.h, pof.outline_intensity, pof.outline_thickness)


def _draw_select(canvas: Image, element: el.SelectBox, stack: RenderStack, pof: POFStyle, focus) -> None:
    rect = element.rect
    canvas.fill_rect(rect.x, rect.y, rect.w, lay.INPUT_HEIGHT, 252.0)
    canvas.draw_border(rect.x, rect.y, rect.w, lay.INPUT_HEIGHT, pof.border_intensity, 1)
    _draw_text(canvas, element.options[element.selected], rect.x + 6, rect.y + 8, 14, stack)
    # Dropdown arrow: a small v glyph at the right edge.
    _draw_text(canvas, "v", rect.x + rect.w - 20, rect.y + 8, 12, stack)
    if focus is not None and focus.element_id == element.element_id:
        outline = Rect_expand_safe(rect, pof.outline_margin, canvas)
        if outline is not None:
            canvas.draw_border(outline.x, outline.y, outline.w, outline.h, pof.outline_intensity, pof.outline_thickness)


def _draw_button(canvas: Image, element: el.Button, stack: RenderStack, pof: POFStyle, focus) -> None:
    rect = element.rect
    canvas.fill_rect(rect.x, rect.y, rect.w, rect.h, 225.0)
    canvas.draw_border(rect.x, rect.y, rect.w, rect.h, pof.border_intensity, 1)
    _draw_text(canvas, element.label, rect.x + 12, rect.y + (rect.h - 14) // 2, 14, stack)
    if focus is not None and focus.element_id == element.element_id:
        outline = Rect_expand_safe(rect, pof.outline_margin, canvas)
        if outline is not None:
            canvas.draw_border(outline.x, outline.y, outline.w, outline.h, pof.outline_intensity, pof.outline_thickness)


def _draw_scrollable(canvas: Image, element: el.ScrollableList, stack: RenderStack, pof: POFStyle, focus) -> None:
    rect = element.rect
    canvas.draw_border(rect.x, rect.y, rect.w, rect.h, pof.border_intensity, 1)
    visible = element.items[element.scroll_offset : element.scroll_offset + element.visible_rows]
    for i, item in enumerate(visible):
        absolute = element.scroll_offset + i
        ry = rect.y + 2 + i * lay.ROW_HEIGHT
        if element.selected == absolute:
            canvas.fill_rect(rect.x + 1, ry, rect.w - 2, lay.ROW_HEIGHT, pof.list_selection_intensity)
        _draw_text(canvas, item, rect.x + 8, ry + 4, lay.LABEL_SIZE, stack)
    if focus is not None and focus.element_id == element.element_id:
        outline = Rect_expand_safe(rect, pof.outline_margin, canvas)
        if outline is not None:
            canvas.draw_border(outline.x, outline.y, outline.w, outline.h, pof.outline_intensity, pof.outline_thickness)


def _draw_placeholder(canvas: Image, element: el.Element, text: str, stack: RenderStack, pof: POFStyle) -> None:
    rect = element.rect
    canvas.fill_rect(rect.x, rect.y, rect.w, rect.h, 238.0)
    canvas.draw_border(rect.x, rect.y, rect.w, rect.h, pof.border_intensity, 1)
    _draw_text(canvas, text, rect.x + 8, rect.y + min(8, max(0, rect.h - 14)), 12, stack)


def Rect_expand_safe(rect, margin: int, canvas: Image):
    """Expand a rect, returning None if it would escape the canvas."""
    out = rect.expanded(margin)
    if out.x < 0 or out.y < 0 or out.x2 > canvas.width or out.y2 > canvas.height:
        return None
    return out


def draw_element(
    canvas: Image,
    element: el.Element,
    stack: RenderStack,
    pof: POFStyle = DEFAULT_POF,
    focus: FocusState | None = None,
) -> None:
    """Draw one laid-out element onto ``canvas`` (the one element dispatch).

    :func:`render_page` draws every element with it, and VSPEC generation
    draws each stateful input's alternative appearances with it.
    """
    if isinstance(element, el.TextBlock):
        _draw_wrapped_text(canvas, element, stack)
    elif isinstance(element, el.ImageElement):
        tile = _render_image_content(element, stack)
        canvas.paste(tile, element.rect.x, element.rect.y)
    elif isinstance(element, el.TextInput):
        _draw_input_box(canvas, element, stack, pof, focus)
    elif isinstance(element, el.Checkbox):
        _draw_checkbox(canvas, element, stack, pof, focus)
    elif isinstance(element, el.RadioGroup):
        _draw_radio_group(canvas, element, stack, pof, focus)
    elif isinstance(element, el.SelectBox):
        _draw_select(canvas, element, stack, pof, focus)
    elif isinstance(element, el.Button):
        _draw_button(canvas, element, stack, pof, focus)
    elif isinstance(element, el.ScrollableList):
        _draw_scrollable(canvas, element, stack, pof, focus)
    elif isinstance(element, el.IFrame):
        _draw_placeholder(canvas, element, f"iframe: {element.src}", stack, pof)
    elif isinstance(element, el.FileInput):
        _draw_placeholder(canvas, element, f"{element.label} (choose file)", stack, pof)
    elif isinstance(element, el.VideoElement):
        _draw_placeholder(canvas, element, "video", stack, pof)
    else:  # pragma: no cover - exhaustive today
        raise TypeError(f"no renderer for {type(element).__name__}")


def page_canvas(page: el.Page, stack: RenderStack, include_title: bool = True) -> Image:
    """Lay ``page`` out and return its blank full-height canvas (title drawn)."""
    height = lay.layout_page(page)
    canvas = Image.blank(page.width, height, page.background)
    if include_title:
        _draw_text(canvas, page.title, lay.MARGIN_X, 10, 18, stack)
    return canvas


def render_page(
    page: el.Page,
    stack: RenderStack | None = None,
    focus: FocusState | None = None,
    pof: POFStyle = DEFAULT_POF,
    include_title: bool = True,
) -> Image:
    """Render the full page (unscrolled, full height) to an image.

    The result is the client-side equivalent of the VSPEC's "long"
    expected appearance when rendered with the reference stack and no
    focus state.
    """
    stack = stack or reference_stack()
    canvas = page_canvas(page, stack, include_title)
    for element in page.elements:
        draw_element(canvas, element, stack, pof, focus)
    canvas.pixels = stack.apply_noise(canvas.pixels, salt=hash(page.title) % 9973)
    return canvas.clip()
