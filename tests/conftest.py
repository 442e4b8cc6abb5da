"""Shared fixtures: trained models (disk-cached) and a reference scenario."""

from __future__ import annotations

import pytest

from repro.crypto import CertificateAuthority
from repro.server import WebServer
from repro.web import (
    Browser,
    Button,
    Checkbox,
    HonestUser,
    Machine,
    Page,
    RadioGroup,
    ScrollableList,
    SelectBox,
    TextBlock,
    TextInput,
)
from repro.web.extension import BrowserExtension


@pytest.fixture(scope="session")
def text_model():
    from repro.nn.zoo import get_text_model

    return get_text_model("base")


@pytest.fixture(scope="session")
def image_model():
    from repro.nn.zoo import get_image_model

    return get_image_model()


def make_transfer_page() -> Page:
    """The running example: a wire-transfer form with every widget type."""
    return Page(
        title="Wire Transfer",
        width=640,
        elements=[
            TextBlock("Transfer funds to another account", 16),
            TextInput("recipient", label="Recipient account"),
            TextInput("amount", label="Amount USD", max_length=10),
            Checkbox("confirm", "I confirm this transfer"),
            RadioGroup("speed", ["Standard", "Express"]),
            SelectBox("currency", ["USD", "EUR", "CAD"]),
            Button("Transfer", action="submit"),
        ],
    )


class TransferScenario:
    """A wired-up client/server/witness test bench.

    ``config`` holds :class:`~repro.core.service.WitnessConfig` fields
    (``batched`` defaults to ``True``); the session's sampler seed is
    pinned to ``config.sampler_seed`` so each bench samples on the same
    schedule.
    """

    def __init__(
        self, text_model, image_model, display=(640, 480), extension=BrowserExtension, **config
    ):
        from repro.core.service import WitnessConfig, WitnessService

        self.ca = CertificateAuthority()
        self.server = WebServer(self.ca)
        self.server.register_page("transfer", make_transfer_page())
        self.machine = Machine(*display)
        self.browser = Browser(self.machine, self.server.serve_page("transfer"))
        config.setdefault("batched", True)
        self.service = WitnessService(
            self.ca, WitnessConfig(**config), text_model=text_model, image_model=image_model
        )
        self.open_witness(extension)
        self.user = HonestUser(self.browser)
        self.vspec = None

    def open_witness(self, extension=BrowserExtension):
        """Open a fresh witness session on this bench's machine, with a new
        extension of type ``extension`` driving it."""
        self.witness = self.service.open_session(
            self.machine, sampler_seed=self.service.config.sampler_seed
        )
        self.extension = extension(self.browser, self.server, self.witness)

    def begin(self):
        self.vspec = self.extension.acquire_vspecs("transfer")
        self.browser.paint()
        self.extension.begin_session()
        return self.vspec

    def honest_fill(self):
        self.user.fill_text_input("recipient", "ACC-998877")
        self.user.fill_text_input("amount", "250.00")
        self.user.toggle_checkbox("confirm", True)

    def submit_body(self, **overrides):
        body = dict(self.browser.page.form_values())
        body["session_id"] = self.vspec.session_id
        body.update(overrides)
        return body

    def end(self, body=None):
        return self.extension.end_session(body if body is not None else self.submit_body())


@pytest.fixture
def scenario(text_model, image_model):
    return TransferScenario(text_model, image_model)
