#!/usr/bin/env python
"""Banking scenario: request tampering and UI tampering, both defeated.

Reproduces the paper's motivating attacks (Table I) on a wire-transfer
form:

1. **Request tampering** — the user sends $250 to their landlord; malware
   rewrites the recipient and amount at submission (the VipersoftX-style
   cryptocurrency redirection).  vWitness's validation function sees the
   mismatch with the inputs it observed and refuses to certify.
2. **UI tampering** — malware rewrites the *displayed* beneficiary so the
   user confirms a transfer they never intended (Fig. 2's attack).  The
   display validator flags the unexpected pixels.
3. **Background forgery** — malware submits without any user at all; with
   no hardware I/O and no displayed values, nothing can be certified.

The bank is one ``WitnessedSite`` deployment — web server plus a single
``WitnessService`` provisioned once — and every scenario below is just
another guest connection against it.

Run:  python examples/banking_attack.py
"""

from repro.attacks.forgery import forge_request_body, tamper_request_field
from repro.attacks.tamper import swap_text_on_display
from repro.core.service import WitnessConfig
from repro.server import WitnessedSite
from repro.web import (
    Button,
    Checkbox,
    HonestUser,
    Page,
    TextBlock,
    TextInput,
)


def make_bank() -> WitnessedSite:
    site = WitnessedSite(config=WitnessConfig(batched=True))
    site.register_page(
        "transfer",
        Page(
            title="Wire Transfer",
            width=640,
            elements=[
                TextBlock("Send money to another account.", 14),
                TextInput("beneficiary", label="Beneficiary account", max_length=24),
                TextInput("amount", label="Amount (USD)", max_length=12),
                Checkbox("confirm", "I authorize this transfer"),
                Button("Send transfer", action="submit"),
            ],
        ),
    )
    return site


def honest_fill(browser):
    user = HonestUser(browser)
    user.fill_text_input("beneficiary", "LANDLORD-4411")
    user.fill_text_input("amount", "250.00")
    user.toggle_checkbox("confirm", True)


def main() -> None:
    site = make_bank()

    print("=== 1. request tampering at submission ===")
    client = site.connect("transfer")
    honest_fill(client.browser)
    evil_body = tamper_request_field(client.submit_body(), "beneficiary", "MULE-ACCT-666")
    evil_body = tamper_request_field(evil_body, "amount", "9500.00")
    decision = client.submit(evil_body)
    print(f"  vWitness: certified={decision.certified} — {decision.reason}")
    assert not decision.certified

    print("=== 2. UI tampering (displayed beneficiary rewritten) ===")
    client = site.connect("transfer")
    user = HonestUser(client.browser)
    user.fill_text_input("amount", "250.00")
    # Malware repaints the heading so the user believes a different story.
    swap_text_on_display(client.machine, 24, 44, "Refund from your bank", size=14)
    client.machine.clock.advance(1500)  # sampling observes the tampering
    decision = client.submit()
    print(f"  vWitness: certified={decision.certified} — {decision.reason}")
    assert not decision.certified

    print("=== 3. background forgery (no user present) ===")
    client = site.connect("transfer")
    forged = forge_request_body(
        client.browser.page.form_values(),
        beneficiary="MULE-ACCT-666",
        amount="9500.00",
        confirm="on",
        session_id=client.vspec.session_id,
    )
    decision = client.submit(forged)
    print(f"  vWitness: certified={decision.certified} — {decision.reason}")
    assert not decision.certified
    print(f"  server on bare request: {site.server.accept_uncertified(forged).reason}")

    print("=== honest control run ===")
    client = site.connect("transfer")
    honest_fill(client.browser)
    decision = client.submit()
    verdict = site.verify(decision)
    print(f"  vWitness: certified={decision.certified}; server: {verdict.reason}")
    assert decision.certified and verdict.ok
    print(
        f"  one witness service covered {site.service.registry.stats()['total_opened']} "
        "guest sessions"
    )


if __name__ == "__main__":
    main()
