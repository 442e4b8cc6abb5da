"""End-to-end session tests: the full §III-B workflow on honest clients."""

import numpy as np
import pytest

from tests.conftest import TransferScenario


class TestHonestSessions:
    def test_full_widget_session_certifies(self, scenario):
        vspec = scenario.begin()
        scenario.honest_fill()
        scenario.user.choose_radio("speed", "Express")
        scenario.user.choose_select("currency", "EUR")
        decision = scenario.end()
        assert decision.certified, decision.reason
        assert scenario.server.verify(decision.request).ok
        report = scenario.witness.report
        assert report.display_ok
        assert not report.violations
        assert report.frames_sampled > 3

    def test_tracked_inputs_match_entered_values(self, scenario):
        scenario.begin()
        scenario.honest_fill()
        decision = scenario.end()
        assert decision.certified, decision.reason
        body = decision.request.body
        assert body["recipient"] == "ACC-998877"
        assert body["amount"] == "250.00"
        assert body["confirm"] == "on"

    def test_edit_and_correct_value_session(self, scenario):
        """Users may delete and retype; the final displayed value wins."""
        scenario.begin()
        scenario.user.fill_text_input("amount", "999")
        # User changes their mind: clear and re-enter.
        scenario.user.fill_text_input("amount", "42")
        scenario.user.fill_text_input("recipient", "ACC-1")
        scenario.user.toggle_checkbox("confirm", True)
        decision = scenario.end()
        assert decision.certified, decision.reason
        assert decision.request.body["amount"] == "42"

    def test_unfilled_fields_submit_empty(self, scenario):
        scenario.begin()
        scenario.user.fill_text_input("amount", "10")
        scenario.user.fill_text_input("recipient", "R")
        scenario.user.toggle_checkbox("confirm", True)
        decision = scenario.end()
        assert decision.certified, decision.reason
        assert decision.request.body["speed"] == ""

    def test_caching_reduces_subsequent_frame_cost(self, text_model, image_model):
        scenario = TransferScenario(text_model, image_model, caching=True)
        scenario.begin()
        scenario.honest_fill()
        decision = scenario.end()
        assert decision.certified, decision.reason
        times = scenario.witness.report.timing.frame_times
        assert len(times) > 3
        assert np.mean(times[1:]) < times[0]

    def test_disabling_cache_still_certifies(self, text_model, image_model):
        scenario = TransferScenario(text_model, image_model, caching=False)
        scenario.begin()
        scenario.user.fill_text_input("amount", "5")
        scenario.user.fill_text_input("recipient", "R")
        scenario.user.toggle_checkbox("confirm", True)
        decision = scenario.end()
        assert decision.certified, decision.reason
        assert scenario.witness.report.frames_skipped == 0

    def test_sequential_and_batched_agree(self, text_model, image_model):
        for batched in (False, True):
            scenario = TransferScenario(text_model, image_model, batched=batched)
            scenario.begin()
            scenario.user.fill_text_input("amount", "77")
            scenario.user.fill_text_input("recipient", "Rr")
            scenario.user.toggle_checkbox("confirm", True)
            decision = scenario.end()
            assert decision.certified, f"batched={batched}: {decision.reason}"

    def test_scrolled_session_certifies(self, text_model, image_model):
        """A session on a page taller than the viewport, requiring scrolling."""
        from repro.web.elements import Button, Page, TextBlock, TextInput
        from repro.web import Browser, HonestUser, Machine
        from repro.web.extension import BrowserExtension
        from repro.core.service import WitnessConfig, WitnessService
        from repro.crypto import CertificateAuthority
        from repro.server import WebServer

        page = Page(
            title="Long Form",
            width=640,
            elements=[TextBlock(f"Section {i} text", 14) for i in range(8)]
            + [TextInput("late_field", label="Late field"), Button("Send")],
        )
        ca = CertificateAuthority()
        server = WebServer(ca)
        server.register_page("long", page)
        machine = Machine(640, 300)
        browser = Browser(machine, server.serve_page("long"))
        service = WitnessService(
            ca, WitnessConfig(batched=True), text_model=text_model, image_model=image_model
        )
        extension = BrowserExtension(browser, server, service.open_session(machine))
        vspec = extension.acquire_vspecs("long")
        browser.paint()
        extension.begin_session()
        user = HonestUser(browser)
        user.fill_text_input("late_field", "deep")
        assert browser.scroll_y > 0  # the user really scrolled
        body = dict(browser.page.form_values())
        body["session_id"] = vspec.session_id
        decision = extension.end_session(body)
        assert decision.certified, decision.reason

    def test_session_report_invocation_accounting(self, scenario):
        scenario.begin()
        scenario.honest_fill()
        scenario.end()
        report = scenario.witness.report
        assert report.text_invocations > 0
        per_frame = sum(r.text_invocations for r in report.frame_results)
        # Display validation accounts for most invocations; the remainder
        # come from interaction hint verification.
        assert 0 < per_frame <= report.text_invocations

    def test_second_session_on_same_machine(self, scenario):
        scenario.begin()
        scenario.honest_fill()
        first = scenario.end()
        assert first.certified
        # A fresh VSPEC/session on the same machine and browser state: the
        # form still holds old values, so the clean-start check must fail.
        scenario.browser.page.find_input("amount").value = "250.00"
        scenario.open_witness()
        vspec2 = scenario.extension.acquire_vspecs("transfer")
        scenario.browser.paint()
        scenario.extension.begin_session()
        decision = scenario.extension.end_session(
            dict(scenario.browser.page.form_values(), session_id=vspec2.session_id)
        )
        assert not decision.certified  # inputs were not empty at start


class TestSessionLifecycleErrors:
    def test_hint_without_session_rejected(self, scenario):
        with pytest.raises(RuntimeError):
            scenario.witness.receive_hint(None)

    def test_end_without_session_rejected(self, scenario):
        with pytest.raises(RuntimeError):
            scenario.witness.end_session({})

    def test_double_begin_rejected(self, scenario):
        scenario.begin()
        with pytest.raises(RuntimeError):
            scenario.witness.begin_session(scenario.vspec)
