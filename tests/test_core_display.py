"""Direct unit tests of the display validator (paper §III-C1)."""

import copy

import numpy as np
import pytest

from repro.core.caches import DigestCache
from repro.core import display as display_module
from repro.core.display import VIEWPORT_SCORE_FLOOR, DisplayValidator
from repro.core.verifiers import ImageVerifier, TextVerifier
from repro.raster.stacks import stack_registry
from repro.server.generate import build_vspec
from repro.vision.image import Image
from repro.vision.match import normalized_cross_correlation
from repro.web import layout as lay
from repro.web.browser import Browser
from repro.web.elements import (
    Button,
    Checkbox,
    ImageElement,
    Page,
    RadioGroup,
    ScrollableList,
    SelectBox,
    TextBlock,
    TextInput,
)
from repro.web.hypervisor import Machine


def _page():
    return Page(
        title="Demo",
        width=640,
        elements=[
            TextBlock("Review and submit your order", 14),
            ImageElement("icon", "lock", width=32, height=32),
            TextInput("qty", label="Quantity"),
            Checkbox("gift", "Gift wrap"),
            SelectBox("size", ["Small", "Large"]),
            ScrollableList("depot", ["North", "South", "East", "West", "Harbour"], visible_rows=2),
            Button("Buy", action="submit"),
        ],
    )


@pytest.fixture
def bench(text_model, image_model):
    page = _page()
    vspec = build_vspec(copy.deepcopy(page), "demo")
    machine = Machine(640, min(600, vspec.height))
    browser = Browser(machine, copy.deepcopy(page), stack=stack_registry()[2])
    browser.paint()
    cache = DigestCache()
    validator = DisplayValidator(
        vspec,
        TextVerifier(text_model, cache=cache),
        ImageVerifier(image_model, cache=cache),
    )
    return machine, browser, vspec, validator


class TestBenignFrames:
    def test_clean_frame_validates(self, bench):
        machine, _browser, _vspec, validator = bench
        result = validator.validate(machine.sample_framebuffer().pixels)
        assert result.ok, [f.reason for f in result.failures]
        assert result.offset_y == 0
        assert result.text_invocations > 0

    def test_all_stacks_validate(self, text_model, image_model):
        page = _page()
        vspec = build_vspec(copy.deepcopy(page), "demo")
        for stack in stack_registry():
            machine = Machine(640, min(600, vspec.height))
            browser = Browser(machine, copy.deepcopy(page), stack=stack)
            browser.paint()
            validator = DisplayValidator(
                vspec,
                TextVerifier(text_model),
                ImageVerifier(image_model),
            )
            result = validator.validate(machine.sample_framebuffer().pixels)
            assert result.ok, (stack.name, [f.reason for f in result.failures][:3])

    def test_changed_rects_limit_work(self, bench):
        machine, _browser, _vspec, validator = bench
        frame = machine.sample_framebuffer().pixels
        full = validator.validate(frame)
        from repro.vision.components import Rect

        partial = validator.validate(frame, changed_rects=[Rect(0, 0, 10, 10)])
        assert partial.entries_checked <= full.entries_checked
        assert partial.text_invocations <= full.text_invocations

    def test_scrolled_frame_locates_offset(self, text_model, image_model):
        # Distinct section texts: near-periodic filler would make the
        # viewport location genuinely ambiguous.
        topics = [
            "Shipping policy details", "Refund terms apply here",
            "Contact our support desk", "Warranty covers two years",
            "Payment methods accepted", "Delivery windows by region",
            "Data privacy statement", "Loyalty points program",
            "Gift card redemption", "Store opening hours",
        ]
        filler = [TextBlock(t, 14) for t in topics]
        page = Page(title="Tall", width=640, elements=filler + [TextInput("f", label="Field")])
        vspec = build_vspec(copy.deepcopy(page), "tall")
        machine = Machine(640, 300)
        browser = Browser(machine, copy.deepcopy(page))
        browser.scroll_y = 150
        browser.paint()  # clamps to max_scroll
        validator = DisplayValidator(
            vspec, TextVerifier(text_model), ImageVerifier(image_model)
        )
        result = validator.validate(machine.sample_framebuffer().pixels)
        assert result.ok, [f.reason for f in result.failures][:3]
        assert abs(result.offset_y - browser.scroll_y) <= 2

    def test_periodic_tall_form_locates_offset_when_filled(self, text_model, image_model):
        """Soak regression: a near-periodic tall form with typed values
        must still locate the true viewport when the tracker's state is
        supplied (the stateful expected appearance, searched at every
        offset)."""
        fields = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
        page = Page(
            title="Periodic",
            width=640,
            elements=[TextInput(n, label=n.title()) for n in fields],
        )
        vspec = build_vspec(copy.deepcopy(page), "periodic")
        machine = Machine(640, 300)
        client_page = copy.deepcopy(page)
        browser = Browser(machine, client_page)
        tracked = {}
        for name in fields[:4]:
            client_page.find_input(name).value = f"value-{name}"
            tracked[name] = f"value-{name}"
        browser.scroll_y = 120
        browser.paint()
        validator = DisplayValidator(
            vspec, TextVerifier(text_model), ImageVerifier(image_model)
        )
        offset, score = validator.locate_viewport(
            machine.sample_framebuffer().pixels, tracked
        )
        assert offset == browser.scroll_y
        assert score > 0.9

    def test_stateful_expected_replaces_prefilled_value(self, text_model, image_model):
        """A prefilled input whose value the user changes must compose the
        *current* value into the expected appearance, not overstrike it."""
        def page_with(value):
            return Page(
                title="Prefilled",
                width=640,
                elements=[TextInput("note", label="Note", value=value)],
            )

        vspec = build_vspec(copy.deepcopy(page_with("draft")), "prefilled")
        validator = DisplayValidator(
            vspec, TextVerifier(text_model), ImageVerifier(image_model)
        )
        composed = validator._expected_for({"note": "final"}).pixels
        baked = build_vspec(copy.deepcopy(page_with("final")), "prefilled").expected
        entry = vspec.entry_for_input("note")
        box = entry.rect
        assert np.array_equal(
            composed[box.y : box.y2, box.x : box.x2],
            baked[box.y : box.y2, box.x : box.x2],
        )

    def test_incremental_recomposition_matches_fresh(self, text_model, image_model):
        """Evolving the tracked state keystroke-by-keystroke (the
        incremental cache path) must compose the same raster as a fresh
        validator composing the final state in one step."""
        page = Page(
            title="Two fields",
            width=640,
            elements=[
                TextInput("a", label="A"),
                TextInput("b", label="B"),
                Checkbox("c", "Agree"),
            ],
        )
        vspec = build_vspec(copy.deepcopy(page), "incr")

        def make_validator():
            return DisplayValidator(
                vspec,
                TextVerifier(text_model),
                ImageVerifier(image_model),
            )

        evolving = make_validator()
        for tracked in (
            {"a": "h"},
            {"a": "he"},
            {"a": "he", "b": "x"},
            {"a": "he", "b": "x", "c": "on"},
            {"a": "he", "b": "", "c": "on"},  # b reverts to initial
        ):
            evolved = evolving._expected_for(tracked).pixels
            fresh = make_validator()._expected_for(tracked).pixels
            assert np.array_equal(evolved, fresh), tracked

    def test_cached_spectrum_locates_like_fresh_validator(self, text_model, image_model):
        """One validator keeps its page spectrum across tracked states,
        refreshing only redrawn entries; every location it reports must
        equal a fresh validator's for the same frame and tracked state."""
        fields = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
        page = Page(
            title="Spectrum",
            width=640,
            elements=[TextInput(n, label=n.title()) for n in fields]
            + [Checkbox("agree", "I agree"), RadioGroup("speed", ["Standard", "Express"])],
        )
        vspec = build_vspec(copy.deepcopy(page), "spectrum")
        machine = Machine(640, 300)
        assert vspec.height > 300  # every frame searches

        def make_validator():
            return DisplayValidator(
                vspec, TextVerifier(text_model), ImageVerifier(image_model)
            )

        evolving = make_validator()
        states = [
            {"alpha": "value-alpha"},
            {"beta": "value-alpha"},  # two fields change: the value moves
            {"beta": "value-alphab"},  # keystrokes
            {"beta": "value-alphabc"},
            {"alpha": "abc", "beta": "x", "gamma": "y", "agree": "on", "speed": "Express"},
            {},  # back to the initial state
            {"delta": "d", "speed": "Standard"},
        ]
        for i, tracked in enumerate(states):
            client = copy.deepcopy(page)
            for name, value in tracked.items():
                element = client.find_input(name)
                if isinstance(element, Checkbox):
                    element.checked = value == "on"
                elif isinstance(element, RadioGroup):
                    element.selected = element.options.index(value)
                else:
                    element.value = value
            browser = Browser(machine, client)
            browser.scroll_y = (0, 120, 200)[i % 3]
            browser.paint()
            frame = machine.sample_framebuffer().pixels
            located = evolving.locate_viewport(frame, tracked)
            assert located == make_validator().locate_viewport(frame, tracked), tracked
            assert located[0] == browser.scroll_y, tracked
            # A strip showing only one field: on this form only the tracked
            # value tells its row from the rows that repeat it.
            for name in tracked:
                top = vspec.entry_for_input(name).rect.y - 4
                strip = make_validator()._expected_for(tracked).pixels[top : top + 36]
                assert evolving.locate_viewport(strip, tracked) == (top, 1.0), (tracked, name)


class TestTrackingHint:
    """``locate_viewport(..., unmoved_from=o)`` scores offset ``o`` alone
    and falls back to the exhaustive search below the floor."""

    @pytest.fixture
    def tall(self, text_model, image_model, monkeypatch):
        fields = ["alpha", "beta", "gamma", "delta", "epsilon"]
        page = Page(
            title="Tracking",
            width=640,
            elements=[TextBlock(f"Section {t} of the form", 14) for t in ("one", "two", "three")]
            + [TextInput(n, label=n.title()) for n in fields],
        )
        vspec = build_vspec(copy.deepcopy(page), "tracking")
        machine = Machine(640, 240)
        browser = Browser(machine, copy.deepcopy(page))
        browser.scroll_y = 90
        browser.paint()
        validator = DisplayValidator(
            vspec, TextVerifier(text_model), ImageVerifier(image_model)
        )
        searches = []
        real = display_module.best_vertical_offset
        monkeypatch.setattr(
            display_module, "best_vertical_offset", lambda f, t: searches.append(1) or real(f, t)
        )
        return machine.sample_framebuffer().pixels, vspec, validator, searches

    def test_hint_at_true_offset_skips_search_with_identical_score(self, tall):
        frame, _vspec, validator, searches = tall
        searched = validator.locate_viewport(frame)
        assert searched[0] == 90 and len(searches) == 1
        assert validator.locate_viewport(frame, unmoved_from=90) == searched  # bit-identical
        assert len(searches) == 1

    def test_hint_below_floor_falls_back_to_search(self, tall):
        frame, vspec, validator, searches = tall
        n = frame.shape[0]
        hint = next(
            o for o in range(vspec.height - n + 1)
            if normalized_cross_correlation(frame, vspec.expected[o : o + n]) < VIEWPORT_SCORE_FLOOR
        )
        assert validator.locate_viewport(frame, unmoved_from=hint) == validator.locate_viewport(frame)
        assert len(searches) == 2

    def test_hint_out_of_range_falls_back_to_search(self, tall):
        frame, vspec, validator, searches = tall
        located = validator.locate_viewport(frame, unmoved_from=vspec.height)
        assert located[0] == 90 and len(searches) == 1


class TestTamperedFrames:
    def test_swapped_heading_detected(self, bench):
        machine, _browser, _vspec, validator = bench
        from repro.attacks.tamper import swap_text_on_display

        swap_text_on_display(machine, 24, 44, "Free money inside!!", size=14)
        result = validator.validate(machine.sample_framebuffer().pixels)
        assert not result.ok
        assert any(f.kind == "text" for f in result.failures)

    def test_image_swap_detected(self, bench):
        machine, browser, vspec, validator = bench
        from repro.raster.icons import render_icon

        icon_entry = next(e for e in vspec.entries if e.kind == "image")
        machine.framebuffer_handle().paste(
            render_icon("cart", 32), icon_entry.rect.x, icon_entry.rect.y
        )
        result = validator.validate(machine.sample_framebuffer().pixels)
        assert not result.ok
        assert any(f.kind == "image" for f in result.failures)

    def test_background_injection_detected(self, bench):
        machine, _browser, _vspec, validator = bench
        fb = machine.framebuffer_handle()
        fb.fill_rect(420, 40, 150, 40, 120.0)  # content where none belongs
        result = validator.validate(machine.sample_framebuffer().pixels)
        assert not result.ok
        assert any(f.kind == "background" for f in result.failures)

    def test_input_value_mismatch_detected(self, bench):
        machine, browser, _vspec, validator = bench
        field = browser.page.find_input("qty")
        field.value = "999"
        browser.paint()
        # vWitness tracked nothing for qty: the display must show "".
        result = validator.validate(machine.sample_framebuffer().pixels)
        assert not result.ok
        assert any("qty" in f.reason for f in result.failures)

    def test_input_value_match_accepted(self, bench):
        machine, browser, _vspec, validator = bench
        field = browser.page.find_input("qty")
        field.value = "42"
        browser.paint()
        result = validator.validate(
            machine.sample_framebuffer().pixels, tracked_inputs={"qty": "42"}
        )
        assert result.ok, [f.reason for f in result.failures]

    def test_checkbox_state_mismatch_detected(self, bench):
        machine, browser, _vspec, validator = bench
        browser.page.find_input("gift").checked = True
        browser.paint()
        result = validator.validate(machine.sample_framebuffer().pixels)  # tracked: off
        assert not result.ok
        assert any(f.kind == "checkbox" for f in result.failures)

    def test_select_text_tamper_detected(self, bench):
        machine, browser, vspec, validator = bench
        from repro.attacks.tamper import swap_text_on_display

        entry = vspec.entry_for_input("size")
        swap_text_on_display(
            machine, entry.rect.x + 6, entry.rect.y + 8, "Jumbo", size=14, background=252.0
        )
        result = validator.validate(machine.sample_framebuffer().pixels)
        assert not result.ok

    def test_unknown_state_rejected(self, bench):
        machine, _browser, _vspec, validator = bench
        result = validator.validate(
            machine.sample_framebuffer().pixels, tracked_inputs={"size": "Gigantic"}
        )
        assert not result.ok
        assert any("no appearance for state" in f.reason for f in result.failures)


class TestScrollable:
    def test_scrolled_list_content_validates(self, bench):
        machine, browser, _vspec, validator = bench
        browser.scroll_element(browser.page.find_input("depot").element_id, 2)
        result = validator.validate(machine.sample_framebuffer().pixels)
        assert result.ok, [f.reason for f in result.failures][:3]

    def test_tampered_list_row_detected(self, bench):
        machine, browser, vspec, validator = bench
        from repro.attacks.tamper import swap_text_on_display

        entry = vspec.entry_for_input("depot")
        swap_text_on_display(
            machine, entry.rect.x + 8, entry.rect.y + 6, "EVIL1", size=13, background=252.0
        )
        result = validator.validate(machine.sample_framebuffer().pixels)
        assert not result.ok


class TestWidthGuard:
    def test_wrong_width_frame_rejected(self, bench):
        _machine, _browser, _vspec, validator = bench
        with pytest.raises(ValueError, match="width"):
            validator.locate_viewport(np.zeros((100, 320)))
