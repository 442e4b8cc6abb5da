"""Automatic VSPEC construction (paper §IV-B "Generating VSPECs").

The script (1) renders the web page with the server's reference stack and
(2) annotates elements with validation types via the HTML tag mapping.
Per-character cells reproduce the renderer's layout geometry exactly —
that agreement is what lets the client-side validator crop the right
pixels for each expected character.

Issuance is one render pass: the elements are drawn in order onto one
canvas, and each checkbox, radio group and select has its state
appearances drawn into its own rows just before its pristine self.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.raster.stacks import RenderStack, reference_stack
from repro.raster.text import layout_text
from repro.vision.components import Rect
from repro.vision.image import WHITE, Image
from repro.vspec.spec import CharCell, ManifestEntry, NestedSpec, VSpec
from repro.vspec.validation import JsonMatchValidation
from repro.web import elements as el
from repro.web import layout as lay
from repro.web.render import _draw_text, draw_element, page_canvas


def _char_cells(text: str, origin_x: int, origin_y: int, size: int) -> list:
    """Manifest cells for one rendered text line (spaces skipped)."""
    cells = []
    for placed in layout_text(text, size):
        if placed.char == " ":
            continue
        cells.append(
            CharCell(x=origin_x + placed.x, y=origin_y + placed.y, w=placed.w, h=placed.h, char=placed.char)
        )
    return cells


def _wrapped_cells(element: el.TextBlock) -> list:
    cells = []
    lines = lay.wrap_text(element.text, element.size, element.rect.w)
    for i, line in enumerate(lines):
        cells.extend(
            _char_cells(line, element.rect.x, element.rect.y + i * (element.size + 4), element.size)
        )
    return cells


def _text_entry_rect(cells: list, fallback: Rect) -> Rect:
    if not cells:
        return fallback
    rect = cells[0].rect
    for cell in cells[1:]:
        rect = rect.union(cell.rect)
    return rect


def _state_appearances(
    canvas: Image, element: el.Element, box: Rect, states: dict, stack: RenderStack
) -> dict:
    """Each state's appearance of ``element``, cropped at ``box``.

    ``states`` maps a form value to the attributes that put the element in
    that state.  A copy of the element in each state is drawn into the
    element's rows of ``canvas`` (the pristine page drawn so far), the box
    is cropped and clipped as the finished raster is, and the rows are
    restored.  Layout stacks elements in disjoint row bands, so these
    crops equal the same boxes of a full-page render in each state.
    """
    rows = slice(element.rect.y, element.rect.y2)
    band = canvas.pixels[rows].copy()
    appearances = {}
    for value, attrs in states.items():
        variant = copy.copy(element)
        for name, attr in attrs.items():
            setattr(variant, name, attr)
        draw_element(canvas, variant, stack)
        appearances[value] = np.clip(canvas.pixels[box.y : box.y2, box.x : box.x2], 0.0, WHITE)
        canvas.pixels[rows] = band
    return appearances


def _scrollable_nested(element: el.ScrollableList, stack: RenderStack) -> NestedSpec:
    """Merged expected appearance: every row of the list, full height."""
    row_h = lay.ROW_HEIGHT
    strip = Image.blank(element.rect.w, row_h * len(element.items) + 4, 252.0)
    entries = []
    for i, item in enumerate(element.items):
        y = 2 + i * row_h
        _draw_text(strip, item, 8, y + 4, lay.LABEL_SIZE, stack)
        cells = _char_cells(item, 8, y + 4, lay.LABEL_SIZE)
        entries.append(
            ManifestEntry(
                kind="text",
                rect=_text_entry_rect(cells, Rect(8, y, max(element.rect.w - 16, 1), row_h)),
                chars=cells,
            )
        )
    return NestedSpec(axis="vertical", expected=strip.pixels, entries=entries)


def build_vspec(
    page: el.Page,
    page_id: str,
    validation=None,
    session_id: str = "",
    extra_fields: dict | None = None,
) -> VSpec:
    """Construct the VSPEC for ``page`` at its configured width.

    ``validation`` defaults to the paper's simplest case: a JSON match
    over every user-input field on the page.
    """
    pristine = copy.deepcopy(page)
    stack = reference_stack()
    canvas = page_canvas(pristine, stack)

    entries: list = []
    nested: dict = {}

    # The title band is text ground truth too.
    title_cells = _char_cells(pristine.title, lay.MARGIN_X, 10, 18)
    if title_cells:
        entries.append(
            ManifestEntry(
                kind="text",
                rect=_text_entry_rect(title_cells, Rect(lay.MARGIN_X, 10, 10, 18)),
                chars=title_cells,
            )
        )

    for element in pristine.elements:
        rect = element.rect
        if isinstance(element, el.TextBlock):
            cells = _wrapped_cells(element)
            entries.append(
                ManifestEntry(kind="text", rect=_text_entry_rect(cells, rect), chars=cells)
            )
        elif isinstance(element, el.ImageElement):
            entries.append(ManifestEntry(kind="image", rect=rect))
        elif isinstance(element, el.TextInput):
            if element.label:
                cells = _char_cells(element.label, rect.x, rect.y, lay.LABEL_SIZE)
                entries.append(
                    ManifestEntry(kind="text", rect=_text_entry_rect(cells, rect), chars=cells)
                )
            box = lay.input_box_rect(element)
            entries.append(
                ManifestEntry(
                    kind="input",
                    rect=box,
                    input_name=element.name,
                    text_size=element.text_size,
                    initial_value=element.value,
                )
            )
        elif isinstance(element, el.Checkbox):
            size = lay.CHECKBOX_SIZE
            box = Rect(rect.x, rect.y + (rect.h - size) // 2, size, size)
            states = {"on": {"checked": True}, "off": {"checked": False}}
            entries.append(
                ManifestEntry(
                    kind="checkbox",
                    rect=box,
                    input_name=element.name,
                    state_appearances=_state_appearances(canvas, element, box, states, stack),
                    initial_value="on" if element.checked else "off",
                )
            )
            cells = _char_cells(
                element.label, rect.x + size + 8, rect.y + (rect.h - lay.LABEL_SIZE) // 2, lay.LABEL_SIZE
            )
            entries.append(
                ManifestEntry(kind="text", rect=_text_entry_rect(cells, rect), chars=cells)
            )
        elif isinstance(element, el.RadioGroup):
            states = {"": {"selected": None}}
            states.update((opt, {"selected": i}) for i, opt in enumerate(element.options))
            entries.append(
                ManifestEntry(
                    kind="radio",
                    rect=rect,
                    input_name=element.name,
                    state_appearances=_state_appearances(canvas, element, rect, states, stack),
                    initial_value=element.request_fields()[element.name],
                )
            )
            for i, option in enumerate(element.options):
                cells = _char_cells(
                    option,
                    rect.x + lay.RADIO_SIZE + 8,
                    rect.y + i * lay.ROW_HEIGHT + 3,
                    lay.LABEL_SIZE,
                )
                entries.append(
                    ManifestEntry(kind="text", rect=_text_entry_rect(cells, rect), chars=cells)
                )
        elif isinstance(element, el.SelectBox):
            states = {opt: {"selected": i, "open": False} for i, opt in enumerate(element.options)}
            entries.append(
                ManifestEntry(
                    kind="select",
                    rect=rect,
                    input_name=element.name,
                    state_appearances=_state_appearances(canvas, element, rect, states, stack),
                    initial_value=element.options[element.selected],
                )
            )
        elif isinstance(element, el.Button):
            entries.append(ManifestEntry(kind="button", rect=rect))
            cells = _char_cells(
                element.label, rect.x + 12, rect.y + (rect.h - 14) // 2, 14
            )
            entries.append(
                ManifestEntry(kind="text", rect=_text_entry_rect(cells, rect), chars=cells)
            )
        elif isinstance(element, el.ScrollableList):
            nested_id = f"nested-{element.element_id}"
            nested[nested_id] = _scrollable_nested(element, stack)
            entries.append(
                ManifestEntry(
                    kind="scroll-v",
                    rect=rect,
                    input_name=element.name,
                    nested_id=nested_id,
                    initial_value=element.request_fields()[element.name],
                )
            )
        elif isinstance(element, el.IFrame) and not element.external:
            entries.append(ManifestEntry(kind="image", rect=rect))
        else:
            raise ValueError(
                f"page {page_id!r} contains unsupported element "
                f"{type(element).__name__}; run apply_compat_fixes first"
            )
        draw_element(canvas, element, stack)

    # The reference stack draws without dither: the finished raster is the
    # clipped canvas, as render_page would return it.
    expected = canvas.clip()
    if validation is None:
        field_names = tuple(sorted(pristine.form_values()))
        validation = JsonMatchValidation(fields=field_names)

    return VSpec(
        page_id=page_id,
        width=pristine.width,
        height=expected.height,
        expected=expected.pixels,
        entries=entries,
        background=pristine.background,
        validation=validation,
        session_id=session_id,
        extra_fields=dict(extra_fields or {}),
        nested=nested,
    )
