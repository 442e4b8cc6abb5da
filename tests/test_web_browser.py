"""Tests for the browser: painting, events, focus, POF drawing, hinting."""

import numpy as np
import pytest

from repro.web import layout as lay
from repro.web.browser import Browser
from repro.web.elements import (
    Button,
    Checkbox,
    Page,
    RadioGroup,
    ScrollableList,
    SelectBox,
    TextBlock,
    TextInput,
)
from repro.web.hypervisor import Machine
from repro.web.render import DEFAULT_POF


def _bench(elements, display=(640, 300)):
    page = Page(title="T", width=640, elements=elements)
    machine = Machine(*display)
    browser = Browser(machine, page)
    browser.paint()
    return machine, browser, page


def _click_center(browser, element, dy=0):
    cx, cy = element.rect.center
    browser.click(cx, cy - browser.scroll_y + dy)


class TestPainting:
    def test_paint_fills_framebuffer(self):
        machine, browser, _page = _bench([TextBlock("hello world")])
        frame = machine.sample_framebuffer()
        assert frame.pixels.min() < 100.0  # some ink
        assert frame.shape == (300, 640)

    def test_width_mismatch_rejected(self):
        page = Page(title="T", width=320, elements=[TextBlock("x")])
        with pytest.raises(ValueError):
            Browser(Machine(640, 300), page)

    def test_scroll_clamps(self):
        machine, browser, _ = _bench([TextBlock("x")] * 30)
        browser.scroll(10_000)
        assert browser.scroll_y == browser.max_scroll
        browser.scroll(-99_999)
        assert browser.scroll_y == 0

    def test_short_page_letterboxes_with_page_background(self):
        """A page shorter than the display letterboxes below its end with
        the page background fill (not stale framebuffer content)."""
        page = Page(
            title="Short",
            width=640,
            background=240.0,
            elements=[TextBlock("just one line")],
        )
        machine = Machine(640, 500)
        browser = Browser(machine, page)
        browser.paint()
        assert browser.page_height < machine.display_height
        frame = machine.sample_framebuffer().pixels
        letterbox = frame[browser.page_height :, :]
        assert letterbox.size > 0
        assert np.all(letterbox == 240.0)
        # The page area itself is rendered, not background fill.
        assert frame[: browser.page_height, :].min() < 100.0


class TestTyping:
    def test_click_focus_and_type(self):
        machine, browser, page = _bench([TextInput("name", label="Name")])
        field = page.elements[0]
        box = lay.input_box_rect(field)
        browser.click(*box.center)
        assert browser.focused_id == field.element_id
        browser.type_text("ab")
        assert field.value == "ab"
        assert field.caret == 2

    def test_caret_placement_by_click_position(self):
        machine, browser, page = _bench([TextInput("name", label="Name", value="hello")])
        field = page.elements[0]
        origin_x, _ = lay.text_origin_in_input(field)
        box = lay.input_box_rect(field)
        browser.click(origin_x + lay.char_advance(field.text_size) * 2, box.center[1])
        assert field.caret == 2
        browser.type_character("X")
        assert field.value == "heXllo"

    def test_backspace_and_selection_replace(self):
        machine, browser, page = _bench([TextInput("name", label="Name")])
        field = page.elements[0]
        browser.click(*lay.input_box_rect(field).center)
        browser.type_text("12345")
        browser.press_backspace()
        assert field.value == "1234"
        browser.select_range(1, 3)
        assert field.selection == (1, 3)
        browser.type_character("X")
        assert field.value == "1X4"
        assert field.selection is None

    def test_max_length_enforced(self):
        machine, browser, page = _bench([TextInput("name", label="N", max_length=3)])
        field = page.elements[0]
        browser.click(*lay.input_box_rect(field).center)
        browser.type_text("abcdef")
        assert field.value == "abc"

    def test_typing_without_focus_is_noop(self):
        machine, browser, page = _bench([TextInput("name", label="N")])
        browser.type_text("abc")
        assert page.elements[0].value == ""

    def test_selection_bounds_checked(self):
        machine, browser, page = _bench([TextInput("name", label="N", value="ab")])
        browser.click(*lay.input_box_rect(page.elements[0]).center)
        with pytest.raises(ValueError):
            browser.select_range(0, 5)


class TestWidgets:
    def test_checkbox_toggle_notifies_after_paint(self):
        machine, browser, page = _bench([Checkbox("ok", "OK")])
        seen = []

        def listener(element, old, new):
            # At notification time the framebuffer must already show the
            # new state (checkmark ink in the box region).
            frame = machine.sample_framebuffer()
            box_rect = element.rect
            region = frame.pixels[box_rect.y : box_rect.y2, box_rect.x : box_rect.x + 20]
            seen.append((old, new, float(region.min())))

        browser.add_input_listener(listener)
        _click_center(browser, page.elements[0])
        assert seen and seen[0][0] == "off" and seen[0][1] == "on"
        assert seen[0][2] < 150.0  # checkmark ink visible at notify time

    def test_bound_method_listener_is_held_weakly(self):
        """A listener object that is gone stops being called; a plain
        function stays registered while only the browser holds it."""
        machine, browser, page = _bench([Checkbox("ok", "OK")])
        seen = []

        class Owner:
            def on_input(self, element, old, new):
                seen.append(("owner", new))

        owner = Owner()
        browser.add_input_listener(owner.on_input)
        browser.add_input_listener(lambda element, old, new: seen.append(("plain", new)))
        _click_center(browser, page.elements[0])
        assert seen == [("owner", "on"), ("plain", "on")]
        del owner
        _click_center(browser, page.elements[0])
        assert seen[2:] == [("plain", "off")]

    def test_radio_row_click_selects(self):
        machine, browser, page = _bench([RadioGroup("speed", ["a", "b", "c"])])
        group = page.elements[0]
        browser.click(group.rect.x + 5, group.rect.y + lay.ROW_HEIGHT * 2 + 5)
        assert group.selected == 2

    def test_select_choose_option(self):
        machine, browser, page = _bench([SelectBox("c", ["x", "y", "z"])])
        select = page.elements[0]
        _click_center(browser, select)
        browser.choose_option(select.element_id, 2)
        assert select.selected == 2
        assert not select.open
        with pytest.raises(ValueError):
            browser.choose_option(select.element_id, 9)

    def test_scrollable_list_scroll_and_pick(self):
        machine, browser, page = _bench(
            [ScrollableList("t", ["a", "b", "c", "d", "e"], visible_rows=2)]
        )
        lst = page.elements[0]
        browser.scroll_element(lst.element_id, 2)
        assert lst.scroll_offset == 2
        browser.click(lst.rect.x + 8, lst.rect.y + 2 + lay.ROW_HEIGHT // 2)
        assert lst.selected == 2  # first visible row after scrolling by 2

    def test_submit_button_fires_listeners(self):
        machine, browser, page = _bench(
            [TextInput("a", label="A", value="v"), Button("Send", action="submit")]
        )
        captured = []
        browser.add_submit_listener(captured.append)
        _click_center(browser, page.elements[1])
        assert captured == [{"a": "v"}]


class TestPOFRendering:
    def test_focus_outline_visible_on_frame(self):
        machine, browser, page = _bench([TextInput("a", label="A")])
        field = page.elements[0]
        browser.click(*lay.input_box_rect(field).center)
        frame = machine.sample_framebuffer()
        band = np.abs(frame.pixels - DEFAULT_POF.outline_intensity) <= 8
        assert band.sum() > 100  # the ring exists

    def test_caret_visible_when_focused(self):
        machine, browser, page = _bench([TextInput("a", label="A")])
        field = page.elements[0]
        browser.click(*lay.input_box_rect(field).center)
        browser.type_text("hi")
        frame = machine.sample_framebuffer()
        band = np.abs(frame.pixels - DEFAULT_POF.caret_intensity) <= 8
        assert band.sum() >= 20  # a 2px-wide, ~20px-tall bar

    def test_selection_highlight_band(self):
        machine, browser, page = _bench([TextInput("a", label="A", value="hello")])
        field = page.elements[0]
        browser.click(*lay.input_box_rect(field).center)
        browser.select_range(0, 4)
        frame = machine.sample_framebuffer()
        band = np.abs(frame.pixels - DEFAULT_POF.highlight_intensity) <= 6
        assert band.sum() > 50

    def test_no_pof_without_focus(self):
        machine, browser, page = _bench([TextInput("a", label="A")])
        frame = machine.sample_framebuffer()
        band = np.abs(frame.pixels - DEFAULT_POF.outline_intensity) <= 8
        from repro.vision.components import find_rectangles

        assert find_rectangles(band, min_width=30, min_height=16) == []
