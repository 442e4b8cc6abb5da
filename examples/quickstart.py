#!/usr/bin/env python
"""Quickstart: certify one honest web interaction end to end.

Builds a protected page, provisions a long-lived ``WitnessService``,
opens a per-guest ``WitnessSession`` on a simulated client machine, lets
an honest user fill the form, and shows the server accepting the
certified request — the complete workflow of the paper's Fig. 4, on the
service-oriented API (one service can witness any number of guests).

Run:  python examples/quickstart.py
"""

from repro.core.service import WitnessConfig, WitnessService
from repro.crypto import CertificateAuthority
from repro.server import WebServer
from repro.web import (
    Browser,
    Button,
    Checkbox,
    HonestUser,
    Machine,
    Page,
    TextBlock,
    TextInput,
)
from repro.web.extension import BrowserExtension


def main() -> None:
    # --- server setup (one-time, paper §III-A) --------------------------
    ca = CertificateAuthority()
    server = WebServer(ca)
    server.register_page(
        "signup",
        Page(
            title="Create Account",
            width=640,
            elements=[
                TextBlock("Sign up for the service below.", 14),
                TextInput("username", label="Username", max_length=20),
                TextInput("email", label="Email address", max_length=30),
                Checkbox("terms", "I agree to the terms of service"),
                Button("Create account", action="submit"),
            ],
        ),
    )

    # --- witness service: provisioned once, serves every guest ----------
    service = WitnessService(ca, WitnessConfig(batched=True))
    service.on_decision(
        lambda session, decision: print(
            f"  [hook] session {session.id} decision: certified={decision.certified}"
        )
    )

    # --- one guest: machine, browser, session handle, extension ---------
    machine = Machine(640, 480)
    browser = Browser(machine, server.serve_page("signup"))
    with service.open_session(machine) as witness:
        extension = BrowserExtension(browser, server, witness)

        # --- the session (paper §III-B steps 1-5) ------------------------
        vspec = extension.acquire_vspecs("signup")  # step 1: VSPEC delivery
        browser.paint()
        extension.begin_session()  # step 2: witnessing starts

        user = HonestUser(browser)  # steps 2a/3/3a happen per sampled frame
        user.fill_text_input("username", "alice")
        user.fill_text_input("email", "alice@example.org")
        user.toggle_checkbox("terms", True)

        body = dict(browser.page.form_values())
        body["session_id"] = vspec.session_id
        decision = extension.end_session(body)  # step 4: submission validation
        report = witness.report

    print(f"vWitness verdict : {decision.reason}")
    assert decision.certified

    verdict = server.verify(decision.request)  # step 5a: server-side checks
    print(f"server verdict   : {verdict.reason}")
    assert verdict.ok

    print(
        f"session stats    : {report.frames_sampled} frames sampled, "
        f"{report.frames_skipped} skipped unchanged, "
        f"{report.text_invocations} text / {report.image_invocations} graphics "
        "model invocations"
    )
    sessions = service.registry.stats()
    print(
        f"service stats    : {sessions['total_opened']} session(s) served, "
        f"{sessions['active']} still active"
    )
    print(f"request body     : {decision.request.body}")


if __name__ == "__main__":
    main()
