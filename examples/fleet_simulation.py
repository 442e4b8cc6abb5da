#!/usr/bin/env python
"""Fleet simulation: a mixed crowd of concurrent guests, one service.

One :class:`WitnessService` witnesses a whole fleet at once: honest
guests filling three different forms, one guest whose display is
tampered mid-session, and one guest that abandons without submitting.
Each guest runs on its own thread and its session validates inline on
that thread; the guests share the service's models and digest cache, so
repeated glyphs and regions across the fleet are verified once — and
the tampered guest still fails alone, because the cache shares verdicts
of identical unit inputs only.

Run:  python examples/fleet_simulation.py
"""

from concurrent.futures import ThreadPoolExecutor

from repro.attacks.tamper import swap_text_on_display
from repro.core.service import WitnessConfig
from repro.datasets.forms import jotform_page, sample_user_entries
from repro.server.webserver import WitnessedSite
from repro.web import HonestUser
from repro.web.elements import Checkbox, RadioGroup, ScrollableList, SelectBox, TextInput

#: The fleet: GUESTS guests round-robined over the FORMS, all concurrent.
FORMS = (0, 1, 2)
GUESTS = 8


def drive_guest(index, client):
    """One guest's whole scripted life, on its own thread."""
    scenario = "honest"
    if index == 3:
        scenario = "tampered"
        # Malware overwrites an on-screen text element mid-session: the
        # witness must catch the mismatch on a later sampled frame and
        # refuse to sign.
        target = next(e for e in client.vspec.entries if e.kind == "text")
        swap_text_on_display(
            client.machine, target.rect.x, target.rect.y, "EVIL TEXT", size=14
        )
        client.machine.clock.advance(1500)
    elif index == 7:
        # This guest walks away; the context manager closes the session.
        client.close()
        return index, "abandoned", None

    user = HonestUser(client.browser, seed=index)
    entries = sample_user_entries(client.browser.page, index)
    for element in client.browser.page.elements:
        name = getattr(element, "name", None)
        if name is None or name not in entries:
            continue
        value = entries[name]
        if isinstance(element, TextInput):
            user.fill_text_input(name, value)
        elif isinstance(element, Checkbox):
            user.toggle_checkbox(name, value == "on")
        elif isinstance(element, RadioGroup):
            user.choose_radio(name, value)
        elif isinstance(element, SelectBox):
            user.choose_select(name, value)
        elif isinstance(element, ScrollableList):
            user.pick_list_item(name, value)
    decision = client.submit()
    return index, scenario, decision


def main() -> None:
    site = WitnessedSite(config=WitnessConfig(batched=True))
    for seed in FORMS:
        site.register_page(f"form-{seed}", jotform_page(seed))

    with site.service as service:
        clients = [
            site.connect(f"form-{FORMS[i % len(FORMS)]}", display=(640, 600))
            for i in range(GUESTS)
        ]
        print(f"fleet: {service.registry.stats()['active']} concurrent sessions open\n")
        with ThreadPoolExecutor(max_workers=GUESTS) as pool:
            outcomes = list(
                pool.map(lambda pair: drive_guest(*pair), enumerate(clients))
            )

        for index, scenario, decision in outcomes:
            verdict = "—" if decision is None else (
                "CERTIFIED" if decision.certified else f"REFUSED ({decision.reason})"
            )
            print(f"  guest {index:>2} [{scenario:<9}] {verdict}")

        snap = service.telemetry()
        forwards = sum(
            c.witness.report.text_forwards + c.witness.report.image_forwards for c in clients
        )
        print(f"\nsessions         : {snap['sessions']}")
        print(f"cache hit rate   : {snap['cache']['hit_rate']:.1%}")
        print(f"forwards         : {forwards} model forwards across the fleet")

    certified = sum(
        1 for _, _, decision in outcomes if decision is not None and decision.certified
    )
    refused = sum(
        1 for _, _, decision in outcomes if decision is not None and not decision.certified
    )
    abandoned = sum(1 for _, _, decision in outcomes if decision is None)
    assert refused == 1, "exactly the tampered guest must be refused"
    assert certified == GUESTS - 2, "every honest, submitting guest certifies"
    assert abandoned == 1, "the abandoning guest reaches no decision"
    print(
        f"\n{certified} honest guests certified, {refused} tampered guest refused, "
        f"{abandoned} guest abandoned."
    )


if __name__ == "__main__":
    main()
