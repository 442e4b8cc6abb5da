"""The untrusted browser: page state, event handling, painting.

Drives a :class:`~repro.web.elements.Page` in response to user events,
maintains focus/caret/selection state (drawing the POF cues), and paints
the visible viewport into the machine framebuffer.  Nothing here is
trusted: malware can call any of these methods, and can also bypass the
browser entirely and write the framebuffer directly.
"""

from __future__ import annotations

import types
import weakref

from repro.raster.stacks import RenderStack, reference_stack
from repro.raster.text import char_advance
from repro.vision.image import Image
from repro.web import elements as el
from repro.web import layout as lay
from repro.web.hypervisor import Machine
from repro.web.render import DEFAULT_POF, FocusState, POFStyle, render_page


class Browser:
    """A single-page browser bound to a machine's display."""

    def __init__(
        self,
        machine: Machine,
        page: el.Page,
        stack: RenderStack | None = None,
        pof: POFStyle = DEFAULT_POF,
    ) -> None:
        if page.width != machine.display_width:
            raise ValueError(
                f"page width {page.width} must match display width {machine.display_width}"
            )
        self.machine = machine
        self.page = page
        self.stack = stack or reference_stack()
        self.pof = pof
        self.scroll_y = 0
        self.focused_id: str | None = None
        self.fullscreen = False
        self.page_height = lay.layout_page(page)
        self._input_listeners: list = []
        self._submit_listeners: list = []

    # -- extension integration ------------------------------------------------

    def add_input_listener(self, callback) -> None:
        """Register a callback(element, old_value, new_value) for edits.

        A bound method is held weakly and dropped once its object is gone:
        the extension that registers one also holds this browser, and a
        strong reference back would make the pair a cycle that only the
        cyclic garbage collector frees, with the whole guest in it.
        """
        if isinstance(callback, types.MethodType):
            self._input_listeners.append(weakref.WeakMethod(callback))
        else:
            self._input_listeners.append(lambda: callback)

    def add_submit_listener(self, callback) -> None:
        """Register a callback(request_body) fired on form submission."""
        self._submit_listeners.append(callback)

    def _notify_input(self, element: el.Element, old, new) -> None:
        for listener in self._input_listeners:
            callback = listener()
            if callback is not None:
                callback(element, old, new)

    # -- painting -----------------------------------------------------------

    @property
    def viewport_height(self) -> int:
        return self.machine.display_height

    @property
    def max_scroll(self) -> int:
        return max(0, self.page_height - self.viewport_height)

    def focus_state(self) -> FocusState | None:
        if self.focused_id is None:
            return None
        return FocusState(element_id=self.focused_id, caret_visible=True)

    def render_full_page(self) -> Image:
        """The complete page raster at its full height (no scrolling)."""
        return render_page(self.page, self.stack, self.focus_state(), self.pof)

    def paint(self) -> None:
        """Render the current viewport into the machine framebuffer."""
        full = self.render_full_page()
        self.page_height = full.height
        self.scroll_y = max(0, min(self.scroll_y, self.max_scroll))
        frame = full.crop_clipped(0, self.scroll_y, self.page.width, self.viewport_height,
                                  fill=self.page.background)
        self.machine.write_framebuffer(frame, 0, 0)

    # -- geometry helpers ----------------------------------------------------

    def page_point(self, view_x: int, view_y: int) -> tuple:
        """Map viewport coordinates to page coordinates."""
        return (view_x, view_y + self.scroll_y)

    def element_at(self, page_x: int, page_y: int) -> el.Element | None:
        for element in self.page.elements:
            if element.rect is not None and element.rect.contains_point(page_x, page_y):
                return element
        return None

    # -- events ----------------------------------------------------------------

    def click(self, view_x: int, view_y: int) -> None:
        """A mouse click at viewport coordinates.

        Input notifications fire *after* the repaint so listeners (the
        extension, hence vWitness) observe a display that already shows
        the new state.
        """
        deferred_notify = None
        px, py = self.page_point(view_x, view_y)
        target = self.element_at(px, py)
        if target is None or not target.focusable:
            self.focused_id = None
            self.paint()
            return
        self.focused_id = target.element_id
        if isinstance(target, el.TextInput):
            origin_x, _ = lay.text_origin_in_input(target)
            advance = char_advance(target.text_size)
            index = max(0, min(len(target.value), round((px - origin_x) / advance)))
            target.caret = index
            target.selection = None
        elif isinstance(target, el.Checkbox):
            old = target.request_fields()[target.name]
            target.checked = not target.checked
            deferred_notify = (target, old)
        elif isinstance(target, el.RadioGroup):
            row = (py - target.rect.y) // lay.ROW_HEIGHT
            if 0 <= row < len(target.options):
                old = target.request_fields()[target.name]
                target.selected = int(row)
                deferred_notify = (target, old)
        elif isinstance(target, el.SelectBox):
            if target.open:
                target.open = False
            else:
                target.open = True
        elif isinstance(target, el.ScrollableList):
            row = (py - target.rect.y - 2) // lay.ROW_HEIGHT
            absolute = target.scroll_offset + int(row)
            if 0 <= row < target.visible_rows and absolute < len(target.items):
                old = target.request_fields()[target.name]
                target.selected = absolute
                deferred_notify = (target, old)
        elif isinstance(target, el.Button):
            if target.action == "submit":
                self.submit()
                return
        self.paint()
        if deferred_notify is not None:
            element, old = deferred_notify
            self._notify_input(element, old, element.request_fields()[element.name])

    def choose_option(self, select_id: str, option_index: int) -> None:
        """Pick an option from an (open) select dropdown."""
        target = self.page.find(select_id)
        if not isinstance(target, el.SelectBox):
            raise TypeError(f"{select_id} is not a SelectBox")
        if not 0 <= option_index < len(target.options):
            raise ValueError(f"option index {option_index} out of range")
        old = target.request_fields()[target.name]
        target.selected = option_index
        target.open = False
        self.paint()
        self._notify_input(target, old, target.request_fields()[target.name])

    def type_character(self, char: str) -> None:
        """Insert one character at the focused input's caret."""
        target = self._focused_text_input()
        if target is None:
            return
        if target.max_length is not None and len(target.value) >= target.max_length:
            return
        old = target.value
        if target.selection:
            self._delete_selection(target)
        target.value = target.value[: target.caret] + char + target.value[target.caret :]
        target.caret += 1
        self.paint()
        self._notify_input(target, old, target.value)

    def type_text(self, text: str) -> None:
        """Insert a string one character at a time (one paint per key)."""
        for char in text:
            self.type_character(char)

    def press_backspace(self) -> None:
        target = self._focused_text_input()
        if target is None:
            return
        old = target.value
        if target.selection:
            self._delete_selection(target)
        elif target.caret > 0:
            target.value = target.value[: target.caret - 1] + target.value[target.caret :]
            target.caret -= 1
        self.paint()
        if target.value != old:
            self._notify_input(target, old, target.value)

    def select_range(self, start: int, end: int) -> None:
        """Highlight [start, end) in the focused text input."""
        target = self._focused_text_input()
        if target is None:
            return
        if not (0 <= start <= end <= len(target.value)):
            raise ValueError(f"selection [{start},{end}) out of range")
        target.selection = (start, end) if end > start else None
        self.paint()

    def scroll(self, delta_y: int) -> None:
        self.scroll_y = max(0, min(self.scroll_y + delta_y, self.max_scroll))
        self.paint()

    def scroll_element(self, element_id: str, delta_rows: int) -> None:
        """Scroll an independently scrollable list."""
        target = self.page.find(element_id)
        if not isinstance(target, el.ScrollableList):
            raise TypeError(f"{element_id} is not scrollable")
        target.scroll_offset = max(0, min(target.scroll_offset + delta_rows, target.max_scroll))
        self.paint()

    # -- fullscreen & submission ----------------------------------------------

    def request_fullscreen(self) -> None:
        self.fullscreen = True

    def exit_fullscreen(self) -> None:
        self.fullscreen = False

    def submit(self) -> dict:
        """Run the page's request-construction logic and notify listeners."""
        body = self.page.form_values()
        for callback in self._submit_listeners:
            callback(body)
        return body

    def show_submitted_banner(self) -> None:
        """The mandatory post-submission UI change (paper §V-A Submission)."""
        banner = Image.blank(self.page.width, 40, 210.0)
        self.machine.write_framebuffer(banner, 0, 0)

    # -- internals ---------------------------------------------------------------

    def _focused_text_input(self) -> el.TextInput | None:
        if self.focused_id is None:
            return None
        element = self.page.find(self.focused_id)
        return element if isinstance(element, el.TextInput) else None

    def _delete_selection(self, target: el.TextInput) -> None:
        start, end = sorted(target.selection)
        target.value = target.value[:start] + target.value[end:]
        target.caret = start
        target.selection = None
