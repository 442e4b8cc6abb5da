"""The honest-user model (paper §II Assumptions / §III-C2).

The user:

* generates *hardware* I/O — every keystroke and click is recorded in the
  hypervisor's interrupt ledger with realistic timing;
* performs **reflective validation**: after entering a value she reads the
  field back from the display and corrects it until the display shows what
  she intends ("if the user sees it on the display, it is the correct
  value");
* interacts conventionally: clicks a field to focus it (creating a POF),
  types, moves on.

Reading the display means literally reading pixels back out of the
framebuffer — the user sees what the machine shows, not what the page's
data structures claim, which is exactly the gap UI-tampering attacks
exploit and reflective validation closes.
"""

from __future__ import annotations

import numpy as np

from repro.raster.text import char_advance
from repro.web import layout as lay
from repro.web.browser import Browser
from repro.web.elements import Checkbox, RadioGroup, ScrollableList, SelectBox, TextInput


class ReflectiveValidationError(RuntimeError):
    """The display refuses to show what the user is typing.

    An honest user gives up (and e.g. phones the bank) rather than
    submitting a form that displays the wrong value.
    """


class HonestUser:
    """Scripted honest user driving a browser through hardware events."""

    def __init__(self, browser: Browser, typing_delay_ms: float = 80.0, seed: int = 0) -> None:
        self.browser = browser
        self.machine = browser.machine
        self.typing_delay_ms = typing_delay_ms
        self._rng = np.random.default_rng(seed)

    # -- low-level hardware actions -----------------------------------------

    def _delay(self, scale: float = 1.0) -> None:
        jitter = float(self._rng.uniform(0.6, 1.5))
        self.machine.clock.advance(self.typing_delay_ms * scale * jitter)

    def press_key(self, char: str) -> None:
        self._delay()
        self.machine.record_hardware_io("key")
        self.browser.type_character(char)

    def press_backspace(self) -> None:
        self._delay()
        self.machine.record_hardware_io("key")
        self.browser.press_backspace()

    def click_viewport(self, x: int, y: int) -> None:
        self._delay(2.0)
        self.machine.record_hardware_io("mouse")
        self.browser.click(x, y)

    # -- element-level actions -----------------------------------------------

    def _scroll_into_view(self, element) -> None:
        rect = element.rect
        if rect is None:
            raise ValueError("page must be laid out before interaction")
        view_h = self.browser.viewport_height
        if rect.y < self.browser.scroll_y or rect.y2 > self.browser.scroll_y + view_h:
            self._delay()
            self.machine.record_hardware_io("mouse")
            self.browser.scroll_y = max(0, min(rect.y - view_h // 3, self.browser.max_scroll))
            self.browser.paint()

    def focus_element(self, element) -> None:
        self._scroll_into_view(element)
        cx, cy = element.rect.center
        if isinstance(element, TextInput):
            box = lay.input_box_rect(element)
            cx, cy = box.center
        self.click_viewport(cx, cy - self.browser.scroll_y)

    def fill_text_input(self, name: str, intended: str, max_retries: int = 2) -> None:
        """Type a value, then reflectively validate it against the display."""
        element = self.browser.page.find_input(name)
        if not isinstance(element, TextInput):
            raise TypeError(f"{name} is not a text input")
        self.focus_element(element)
        for _attempt in range(max_retries + 1):
            # Clear whatever is currently in the field.
            while element.value:
                self.press_backspace()
            for char in intended:
                self.press_key(char)
            if self._displayed_value_matches(element, intended):
                return
        raise ReflectiveValidationError(
            f"field {name!r} keeps displaying something other than {intended!r}"
        )

    def toggle_checkbox(self, name: str, desired: bool) -> None:
        element = self.browser.page.find_input(name)
        if not isinstance(element, Checkbox):
            raise TypeError(f"{name} is not a checkbox")
        if element.checked != desired:
            self.focus_element(element)

    def choose_radio(self, name: str, option: str) -> None:
        element = self.browser.page.find_input(name)
        if not isinstance(element, RadioGroup):
            raise TypeError(f"{name} is not a radio group")
        index = element.options.index(option)
        self._scroll_into_view(element)
        rect = element.rect
        y = rect.y + index * lay.ROW_HEIGHT + lay.ROW_HEIGHT // 2
        self.click_viewport(rect.x + lay.RADIO_SIZE // 2, y - self.browser.scroll_y)

    def choose_select(self, name: str, option: str) -> None:
        element = self.browser.page.find_input(name)
        if not isinstance(element, SelectBox):
            raise TypeError(f"{name} is not a select box")
        self.focus_element(element)  # opens the dropdown
        self._delay()
        self.machine.record_hardware_io("mouse")
        self.browser.choose_option(element.element_id, element.options.index(option))

    def pick_list_item(self, name: str, item: str) -> None:
        element = self.browser.page.find_input(name)
        if not isinstance(element, ScrollableList):
            raise TypeError(f"{name} is not a scrollable list")
        self._scroll_into_view(element)
        index = element.items.index(item)
        while index < element.scroll_offset:
            self._delay()
            self.machine.record_hardware_io("mouse")
            self.browser.scroll_element(element.element_id, -1)
        while index >= element.scroll_offset + element.visible_rows:
            self._delay()
            self.machine.record_hardware_io("mouse")
            self.browser.scroll_element(element.element_id, 1)
        row = index - element.scroll_offset
        y = element.rect.y + 2 + row * lay.ROW_HEIGHT + lay.ROW_HEIGHT // 2
        self.click_viewport(element.rect.x + 10, y - self.browser.scroll_y)

    # -- reflective validation ----------------------------------------------------

    def _displayed_value_matches(self, element: TextInput, intended: str) -> bool:
        """Read the field back from the *framebuffer* and compare.

        The user's ground truth is the display.  We compare the field's
        rendered pixels against a rendering of the intended value — a
        human does this by reading; the simulation does it by comparing
        the on-screen raster with what the intended text should look like
        in the browser's own rendering stack.
        """
        from repro.vision.image import Image
        from repro.web.render import FocusState, _draw_input_box  # avoid cycle

        frame = self.machine.sample_framebuffer()
        box = lay.input_box_rect(element)
        vy = box.y - self.browser.scroll_y
        if vy < 0 or vy + box.h > frame.height:
            return False  # can't read an off-screen field
        shown = frame.crop(box.x, vy, box.w, box.h)
        expected_el = TextInput(
            name=element.name,
            label=element.label,
            value=intended,
            text_size=element.text_size,
            element_id=element.element_id,
        )
        expected_el.rect = element.rect
        expected_el.caret = len(intended)
        canvas = Image.blank(self.browser.page.width, element.rect.y2 + 40, 255.0)
        _draw_input_box(
            canvas,
            expected_el,
            self.browser.stack,
            self.browser.pof,
            FocusState(element.element_id),
        )
        expected = canvas.crop(box.x, box.y, box.w, box.h)
        diff = np.abs(shown.pixels - expected.pixels)
        mismatch = float(np.mean(diff > 60.0))
        return mismatch < 0.01
