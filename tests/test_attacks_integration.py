"""Security analysis integration tests (paper §V, Table I).

Every attack vector the paper analyzes must end in one of the two safe
outcomes: the request is *not certified* by vWitness, or the certified
request is *rejected by the server*.
"""

import numpy as np
import pytest

from repro.attacks.forgery import DishonestExtension, forge_request_body, tamper_request_field
from repro.attacks.pof_forgery import draw_caret_and_highlight, draw_second_outline
from repro.attacks.replay import ReplayAttacker
from repro.attacks.tamper import overlay_rectangle, swap_text_on_display
from repro.attacks.toctou import DisplayFlipper
from repro.crypto.keys import MeasuredState, SealedSigningKey, SealError, generate_signing_key
from repro.vision.components import Rect
from tests.conftest import TransferScenario


class TestRequestForgery:
    def test_forged_request_without_user_denied(self, scenario):
        """Scranos-style: malware submits with zero user interaction."""
        scenario.begin()
        body = forge_request_body(
            scenario.browser.page.form_values(),
            recipient="attacker-acct",
            amount="9999",
            session_id=scenario.vspec.session_id,
        )
        decision = scenario.end(body)
        assert not decision.certified
        # The bare request also fails at the server without certification.
        assert not scenario.server.accept_uncertified(body).ok

    def test_tampered_request_field_denied(self, scenario):
        """User fills honestly; malware rewrites the recipient at submit."""
        scenario.begin()
        scenario.honest_fill()
        body = tamper_request_field(scenario.submit_body(), "recipient", "attacker-acct")
        decision = scenario.end(body)
        assert not decision.certified
        assert "validation function" in decision.reason

    def test_malware_driven_browser_input_denied(self, scenario):
        """Malware types via the browser (no hardware interrupts)."""
        scenario.begin()
        field = scenario.browser.page.find_input("amount")
        from repro.web import layout as lay

        scenario.browser.click(*lay.input_box_rect(field).center)
        scenario.machine.clock.advance(40)
        scenario.browser.type_text("666")  # no record_hardware_io calls
        scenario.machine.clock.advance(600)
        decision = scenario.end()
        assert not decision.certified

    def test_amount_inflation_after_honest_entry_denied(self, scenario):
        """Page logic inflates the amount the honest user typed."""
        scenario.begin()
        scenario.honest_fill()
        body = scenario.submit_body()
        body["amount"] = "250000.00"
        decision = scenario.end(body)
        assert not decision.certified


class TestUITampering:
    def test_text_swap_detected(self, scenario):
        scenario.begin()
        scenario.user.fill_text_input("amount", "250.00")
        swap_text_on_display(scenario.machine, 24, 44, "Everything is fine", size=16)
        scenario.machine.clock.advance(1200)  # sampling observes the lie
        decision = scenario.end()
        assert not decision.certified

    def test_overlay_detected(self, scenario):
        scenario.begin()
        scenario.user.fill_text_input("amount", "1.00")
        overlay_rectangle(scenario.machine, 24, 60, 300, 60, color=250.0, text="Free gift")
        scenario.machine.clock.advance(1200)
        decision = scenario.end()
        assert not decision.certified

    def test_displayed_value_rewrite_detected(self, scenario):
        """Malware repaints the amount field with a different value."""
        from repro.web import layout as lay

        scenario.begin()
        scenario.user.fill_text_input("amount", "250.00")
        field = scenario.browser.page.find_input("amount")
        box = lay.input_box_rect(field)
        ox, oy = lay.text_origin_in_input(field)
        swap_text_on_display(
            scenario.machine, ox, oy, "999.99", size=field.text_size, background=252.0
        )
        scenario.machine.clock.advance(1200)
        decision = scenario.end()
        assert not decision.certified


class TestBackgroundTampering:
    """Content painted on the page background after the first frame.

    The background check used to run on full frames only (in practice
    frame 0), so a later frame could show anything where the page has no
    element.  It now runs on every validated frame, over the changed
    rectangles outside the grown entries.
    """

    def test_text_on_background_detected(self, scenario):
        scenario.begin()
        scenario.honest_fill()
        swap_text_on_display(scenario.machine, 330, 420, "Pay to ACC-666 now", size=16)
        scenario.machine.clock.advance(1200)
        decision = scenario.end()
        assert not decision.certified
        failures = scenario.witness.report.all_failures
        assert any(f.kind == "background" for f in failures), failures

    def test_dark_block_on_background_detected(self, scenario):
        scenario.begin()
        scenario.honest_fill()
        overlay_rectangle(scenario.machine, 330, 420, 200, 60, color=40.0)
        scenario.machine.clock.advance(1200)
        decision = scenario.end()
        assert not decision.certified
        failures = scenario.witness.report.all_failures
        assert any(f.kind == "background" for f in failures), failures


class TestTOCTOU:
    def _frames(self, scenario):
        honest = scenario.machine.sample_framebuffer().pixels.copy()
        tampered = honest.copy()
        img = scenario.machine.framebuffer_handle()
        overlay_rectangle(scenario.machine, 24, 44, 400, 30, color=252.0, text="Send to attacker")
        tampered = scenario.machine.sample_framebuffer().pixels.copy()
        img.pixels[...] = honest
        return honest, tampered

    def test_display_flipping_caught_by_random_sampling(self, scenario):
        scenario.begin()
        honest, tampered = self._frames(scenario)
        flipper = DisplayFlipper(
            scenario.machine, honest, tampered, period_ms=400.0, tampered_fraction=0.5
        )
        flipper.drive(total_ms=4000.0)
        scenario.machine.framebuffer_handle().pixels[...] = honest
        decision = scenario.end(scenario.submit_body())
        assert not decision.certified

    def test_flipping_evades_periodic_sampling(self, text_model, image_model):
        """The ablation: periodic sampling CAN be dodged by synchronizing."""
        scenario = TransferScenario(
            text_model, image_model, periodic_sampling=True, sampler_seed=3
        )
        scenario.begin()
        honest, tampered = self._frames(scenario)
        # Attacker knows the 250ms period: shows tampered content only in
        # windows that never contain a multiple of 250ms.
        flipper = DisplayFlipper(
            scenario.machine, honest, tampered, period_ms=250.0,
            tampered_fraction=0.4, offset_ms=-145.0,
        )
        flipper.drive(total_ms=3000.0)
        scenario.machine.framebuffer_handle().pixels[...] = honest
        decision = scenario.end(scenario.submit_body())
        # Periodic sampling misses the tampered windows entirely.
        assert decision.certified, decision.reason


class TestDishonestExtension:
    def _scenario_with_evil_extension(self, text_model, image_model):
        return TransferScenario(text_model, image_model, extension=DishonestExtension)

    def test_forged_hint_for_untouched_field_denied(self, text_model, image_model):
        scenario = self._scenario_with_evil_extension(text_model, image_model)
        scenario.begin()
        scenario.user.fill_text_input("amount", "10")
        scenario.extension.forge_hint("recipient", "attacker-acct")
        scenario.user.toggle_checkbox("confirm", True)
        body = scenario.submit_body(recipient="attacker-acct")
        decision = scenario.end(body)
        assert not decision.certified

    def test_hint_value_override_denied(self, text_model, image_model):
        """Extension reports a different value than the user typed."""
        scenario = self._scenario_with_evil_extension(text_model, image_model)
        scenario.extension.value_overrides["amount"] = "99999"
        scenario.begin()
        scenario.user.fill_text_input("amount", "10")
        scenario.user.toggle_checkbox("confirm", True)
        body = scenario.submit_body(amount="99999")
        decision = scenario.end(body)
        assert not decision.certified

    def test_wrong_width_fails_viewport(self, text_model, image_model):
        scenario = self._scenario_with_evil_extension(text_model, image_model)
        scenario.extension.width_lie = 640  # page truly is 640...
        scenario.begin()
        # ...so lie the other way: narrow the page after VSPEC acquisition
        # is not possible in-model; instead check the server-side guard.
        with pytest.raises(ValueError):
            scenario.server.vspec_for("transfer", 800)

    def test_suppressed_hints_leave_inputs_untracked(self, text_model, image_model):
        scenario = self._scenario_with_evil_extension(text_model, image_model)
        scenario.extension.suppress_hints = True
        scenario.begin()
        scenario.user.fill_text_input("amount", "10")
        body = scenario.submit_body()
        decision = scenario.end(body)
        # vWitness tracked nothing, display shows "10" but tracked is "",
        # so either display validation or the validation function fails.
        assert not decision.certified


class TestPOFForgery:
    def test_second_outline_violates_consistency(self, scenario):
        scenario.begin()
        scenario.user.fill_text_input("amount", "10")
        from repro.web import layout as lay

        other = scenario.browser.page.find_input("recipient")
        box = lay.input_box_rect(other)
        draw_second_outline(
            scenario.machine,
            Rect(box.x, box.y - scenario.browser.scroll_y, box.w, box.h),
            Rect(box.x, box.y - scenario.browser.scroll_y + 60, box.w, box.h),
        )
        scenario.machine.clock.advance(900)
        decision = scenario.end()
        assert not decision.certified

    def test_caret_plus_highlight_violates_exclusivity(self, scenario):
        scenario.begin()
        scenario.user.fill_text_input("amount", "10")
        from repro.web import layout as lay

        field = scenario.browser.page.find_input("amount")
        box = lay.input_box_rect(field)
        vy = box.y - scenario.browser.scroll_y
        draw_caret_and_highlight(
            scenario.machine,
            caret_x=box.x2 - 12,
            caret_y=vy + 5,
            highlight=Rect(box.x + 30, vy + 8, 30, 14),
        )
        scenario.machine.clock.advance(900)
        decision = scenario.end()
        assert not decision.certified


class TestReplayAndCrypto:
    def test_replayed_request_rejected_by_server(self, scenario):
        scenario.begin()
        scenario.honest_fill()
        decision = scenario.end()
        assert decision.certified
        attacker = ReplayAttacker()
        attacker.capture(decision.request)
        assert scenario.server.verify(decision.request).ok
        replayed = scenario.server.verify(attacker.replay_last())
        assert not replayed.ok
        assert "replayed" in replayed.reason

    def test_replay_with_body_swap_breaks_signature(self, scenario):
        scenario.begin()
        scenario.honest_fill()
        decision = scenario.end()
        attacker = ReplayAttacker()
        attacker.capture(decision.request)
        swapped = attacker.replay_with_body_swap(amount="99999")
        result = scenario.server.verify(swapped)
        assert not result.ok
        assert "signature" in result.reason

    def test_tampered_stack_cannot_unseal(self):
        state = MeasuredState.measure({"vwitness-core": b"good"})
        sealed = SealedSigningKey(generate_signing_key(), state)
        rooted = state.with_tampered("vwitness-core", b"malicious")
        with pytest.raises(SealError):
            sealed.unseal(rooted)

    def test_session_with_tampered_stack_refuses_to_certify(self, text_model, image_model, scenario):
        scenario.begin()
        scenario.honest_fill()
        # Malware flips the measured state before submission.
        scenario.service.submission.measured_state = (
            scenario.service.submission.measured_state.with_tampered(
                "vwitness-core", b"patched"
            )
        )
        decision = scenario.end()
        assert not decision.certified
        assert "unsealing" in decision.reason
