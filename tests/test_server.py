"""Tests for VSPEC generation, the compat script and server verification."""

import copy

import numpy as np
import pytest

from repro.crypto import CertificateAuthority
from repro.crypto.keys import generate_signing_key
from repro.crypto.signing import sign_request
from repro.server.compat import apply_compat_fixes, apply_compat_fixes_html, check_compatibility
from repro.server.generate import build_vspec
from repro.server.webserver import WebServer
from repro.vision.components import Rect
from repro.vspec.serialize import vspec_digest
from repro.web.elements import (
    Button,
    Checkbox,
    FileInput,
    IFrame,
    Page,
    RadioGroup,
    ScrollableList,
    SelectBox,
    TextBlock,
    TextInput,
    VideoElement,
)
from repro.datasets.forms import jotform_page
from repro.scenarios.pages import ARCHETYPES, build_archetype_pages
from repro.web import layout as lay
from repro.web.html import page_to_html
from repro.web.render import render_page


def _rich_page():
    return Page(
        title="Order",
        width=640,
        elements=[
            TextBlock("Complete your order below", 14),
            TextInput("qty", label="Quantity"),
            Checkbox("gift", "Gift wrap"),
            RadioGroup("ship", ["Ground", "Air"]),
            SelectBox("size", ["S", "M", "L"]),
            ScrollableList("store", ["North", "South", "East", "West"], visible_rows=2),
            Button("Buy now"),
        ],
    )


class TestVSpecGeneration:
    def test_manifest_covers_every_element(self):
        vspec = build_vspec(_rich_page(), "order")
        kinds = [e.kind for e in vspec.entries]
        assert kinds.count("input") == 1
        assert kinds.count("checkbox") == 1
        assert kinds.count("radio") == 1
        assert kinds.count("select") == 1
        assert kinds.count("scroll-v") == 1
        assert kinds.count("button") == 1
        assert kinds.count("text") >= 5  # title, paragraph, labels, options

    def test_char_cells_sit_on_rendered_ink(self):
        vspec = build_vspec(_rich_page(), "order")
        for entry in vspec.entries:
            for cell in entry.chars:
                region = vspec.expected[cell.y : cell.y + cell.h, cell.x : cell.x + cell.w]
                assert region.min() < 200.0, f"cell {cell} has no ink"

    def test_state_appearances_complete(self):
        vspec = build_vspec(_rich_page(), "order")
        checkbox = vspec.entry_for_input("gift")
        assert set(checkbox.state_appearances) == {"on", "off"}
        radio = vspec.entry_for_input("ship")
        assert set(radio.state_appearances) == {"", "Ground", "Air"}
        select = vspec.entry_for_input("size")
        assert set(select.state_appearances) == {"S", "M", "L"}
        assert checkbox.initial_value == "off"
        assert select.initial_value == "S"

    def test_state_appearances_differ_between_states(self):
        vspec = build_vspec(_rich_page(), "order")
        checkbox = vspec.entry_for_input("gift")
        on = checkbox.state_appearances["on"]
        off = checkbox.state_appearances["off"]
        assert np.abs(on - off).max() > 50.0

    def test_nested_spec_for_scrollable(self):
        vspec = build_vspec(_rich_page(), "order")
        entry = vspec.entry_for_input("store")
        nested = vspec.nested[entry.nested_id]
        assert nested.axis == "vertical"
        assert nested.expected.shape[0] > entry.rect.h  # merged all rows
        texts = ["".join(c.char for c in sub.chars) for sub in nested.entries]
        assert texts == ["North", "South", "East", "West"]

    def test_default_validation_covers_all_inputs(self):
        vspec = build_vspec(_rich_page(), "order")
        assert set(vspec.validation.fields) == {"qty", "gift", "ship", "size", "store"}

    def test_unsupported_elements_rejected(self):
        page = Page(title="T", elements=[FileInput("doc")])
        with pytest.raises(ValueError, match="compat"):
            build_vspec(page, "bad")


def _full_page_issuance(page: Page) -> tuple:
    """Reference: the expected raster and every stateful entry's state
    appearances from a whole-page render per state (the former issuance)."""
    pristine = copy.deepcopy(page)
    expected = render_page(pristine, include_title=True).pixels

    def crop(element, box, **attrs):
        snapshot = copy.deepcopy(pristine)
        target = snapshot.find(element.element_id)
        for name, value in attrs.items():
            setattr(target, name, value)
        return render_page(snapshot, include_title=True).pixels[box.y : box.y2, box.x : box.x2]

    appearances = []
    for element in pristine.elements:
        rect = element.rect
        if isinstance(element, Checkbox):
            size = lay.CHECKBOX_SIZE
            box = Rect(rect.x, rect.y + (rect.h - size) // 2, size, size)
            appearances.append({v: crop(element, box, checked=c) for v, c in (("on", True), ("off", False))})
        elif isinstance(element, RadioGroup):
            states = {"": crop(element, rect, selected=None)}
            for i, option in enumerate(element.options):
                states[option] = crop(element, rect, selected=i)
            appearances.append(states)
        elif isinstance(element, SelectBox):
            appearances.append(
                {o: crop(element, rect, selected=i, open=False) for i, o in enumerate(element.options)}
            )
    return expected, appearances


def _oracle_pages():
    yield _rich_page()
    for archetype in ARCHETYPES:
        for seed in (0, 1):
            yield from build_archetype_pages(archetype, seed)
    for seed in range(210):
        yield jotform_page(seed, 640)


class TestOneRenderPass:
    def test_issuance_matches_full_page_renders(self):
        """One render pass gives the rasters a full-page render per state gives."""
        stateful = 0
        for page in _oracle_pages():
            expected, appearances = _full_page_issuance(page)
            vspec = build_vspec(page, "oracle")
            assert vspec.expected.dtype == expected.dtype
            assert np.array_equal(vspec.expected, expected), page.title
            issued = [
                e.state_appearances for e in vspec.entries if e.kind in ("checkbox", "radio", "select")
            ]
            assert len(issued) == len(appearances), page.title
            for got, want in zip(issued, appearances):
                assert list(got) == list(want), page.title
                for value in want:
                    assert got[value].shape == want[value].shape, (page.title, value)
                    assert got[value].dtype == want[value].dtype, (page.title, value)
                    assert np.array_equal(got[value], want[value]), (page.title, value)
                stateful += len(want)
        assert stateful > 1000


class TestCompatScript:
    def test_fixes_remove_iframes_and_add_maxlength(self):
        page = Page(
            title="T",
            elements=[
                TextInput("a", label="A"),
                IFrame("https://ads.example/banner"),
                IFrame("/local/terms"),
            ],
        )
        report = apply_compat_fixes(page)
        assert report.removed_iframes == ["https://ads.example/banner"]
        assert len([e for e in page.elements if isinstance(e, IFrame)]) == 1
        assert page.elements[0].max_length is not None
        assert report.maxlength_added == ["a"]

    def test_warnings_for_unsupported(self):
        page = Page(title="T", elements=[FileInput("doc"), VideoElement()])
        report = apply_compat_fixes(page, css="input:focus { outline: none; }")
        assert not report.clean
        reasons = " ".join(report.warnings)
        assert "file input" in reasons
        assert "video" in reasons
        assert "outline" in reasons

    def test_html_level_scan(self):
        page = Page(
            title="T",
            elements=[TextInput("a", label="A"), FileInput("doc"), IFrame("https://x.test/ad")],
        )
        report, form = apply_compat_fixes_html(page_to_html(page, css=".focus { color: red }"))
        assert report.removed_iframes == ["https://x.test/ad"]
        assert "a" in report.maxlength_added
        assert any("file input" in w for w in report.warnings)
        assert any(".focus" in w for w in report.warnings)

    def test_check_compatibility_fraction(self):
        page = Page(title="T", elements=[TextInput("a"), FileInput("f")])
        census = check_compatibility(page)
        assert census == {"supported": 1, "total": 2, "fraction": 0.5}


class TestWebServer:
    def _server(self):
        ca = CertificateAuthority()
        server = WebServer(ca)
        server.register_page("order", _rich_page())
        return ca, server

    def test_vspec_issuance_fresh_sessions(self):
        _ca, server = self._server()
        a = server.vspec_for("order", 640)
        b = server.vspec_for("order", 640)
        assert a.session_id != b.session_id
        assert a.extra_fields["session_id"] == a.session_id

    def test_width_mismatch_rejected(self):
        _ca, server = self._server()
        with pytest.raises(ValueError, match="width"):
            server.vspec_for("order", 800)
        with pytest.raises(KeyError):
            server.vspec_for("nope", 640)

    def test_duplicate_registration_rejected(self):
        _ca, server = self._server()
        with pytest.raises(ValueError):
            server.register_page("order", _rich_page())

    def _certified(self, ca, server, vspec, body=None):
        key = generate_signing_key()
        cert = ca.issue("client", key.public_key())
        body = body or {"session_id": vspec.session_id}
        return sign_request(key, body, vspec_digest(vspec), cert)

    def test_verify_accepts_fresh_valid_request(self):
        ca, server = self._server()
        vspec = server.vspec_for("order", 640)
        result = server.verify(self._certified(ca, server, vspec))
        assert result.ok, result.reason

    def test_replay_rejected(self):
        ca, server = self._server()
        vspec = server.vspec_for("order", 640)
        request = self._certified(ca, server, vspec)
        assert server.verify(request).ok
        replay = server.verify(request)
        assert not replay.ok
        assert "replayed" in replay.reason

    def test_unknown_session_rejected(self):
        ca, server = self._server()
        vspec = server.vspec_for("order", 640)
        request = self._certified(ca, server, vspec, body={"session_id": "fabricated"})
        assert not server.verify(request).ok

    def test_stale_vspec_echo_rejected(self):
        ca, server = self._server()
        old = server.vspec_for("order", 640)
        fresh = server.vspec_for("order", 640)
        key = generate_signing_key()
        cert = ca.issue("client", key.public_key())
        # Sign against the OLD vspec digest but claim the fresh session.
        request = sign_request(key, {"session_id": fresh.session_id}, vspec_digest(old), cert)
        result = server.verify(request)
        assert not result.ok
        assert "VSPEC echo" in result.reason

    def test_foreign_ca_certificate_rejected(self):
        ca, server = self._server()
        vspec = server.vspec_for("order", 640)
        other_ca = CertificateAuthority("rogue")
        key = generate_signing_key()
        cert = other_ca.issue("client", key.public_key())
        request = sign_request(key, {"session_id": vspec.session_id}, vspec_digest(vspec), cert)
        result = server.verify(request)
        assert not result.ok
        assert "certificate" in result.reason

    def test_request_over_edited_nested_entries_refused(self):
        ca, server = self._server()
        vspec = server.vspec_for("order", 640)
        (key, nested), = vspec.nested.items()
        tampered = copy.copy(vspec)
        tampered.nested = {key: copy.copy(nested)}
        tampered.nested[key].entries = nested.entries[:-1]
        result = server.verify(self._certified(ca, server, tampered))
        assert not result.ok
        assert "VSPEC echo" in result.reason
        assert server.verify(self._certified(ca, server, vspec)).ok

    def test_uncertified_request_rejected(self):
        _ca, server = self._server()
        assert not server.accept_uncertified({"qty": "9999"}).ok
