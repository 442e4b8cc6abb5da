"""Tests for the VSPEC data model, validation functions, and crypto."""

import numpy as np
import pytest

from repro.crypto.ca import CertificateAuthority, CertificateError
from repro.crypto.keys import MeasuredState, SealedSigningKey, SealError, generate_signing_key
from repro.crypto.signing import SignatureError, canonical_body, sign_request, verify_request
from repro.vision.components import Rect
from repro.datasets.forms import jotform_page
from repro.server.generate import build_vspec
from repro.vspec.serialize import (
    vspec_digest,
    vspec_from_payload,
    vspec_state_rasters,
    vspec_to_payload,
)
from repro.vspec.spec import CharCell, ManifestEntry, NestedSpec, VSpec
from repro.vspec.validation import (
    Constraint,
    ConstraintValidation,
    JsonMatchValidation,
    ValidationError,
    run_validation,
)


def _tiny_vspec(**overrides):
    kwargs = dict(
        page_id="p",
        width=40,
        height=60,
        expected=np.full((60, 40), 255.0),
        entries=[
            ManifestEntry(
                kind="text",
                rect=Rect(2, 2, 20, 10),
                chars=[CharCell(2, 2, 10, 10, "A")],
            ),
            ManifestEntry(kind="input", rect=Rect(2, 20, 30, 12), input_name="amount"),
        ],
        validation=JsonMatchValidation(fields=("amount",)),
        session_id="s1",
        extra_fields={"session_id": "s1"},
    )
    kwargs.update(overrides)
    return VSpec(**kwargs)


class TestVSpecModel:
    def test_shape_must_match(self):
        with pytest.raises(ValueError):
            _tiny_vspec(expected=np.zeros((10, 10)))

    def test_visible_entries(self):
        spec = _tiny_vspec()
        top = spec.visible_entries(Rect(0, 0, 40, 15))
        assert len(top) == 1 and top[0].kind == "text"
        assert len(spec.visible_entries(Rect(0, 0, 40, 60))) == 2

    def test_entry_for_input(self):
        spec = _tiny_vspec()
        assert spec.entry_for_input("amount").kind == "input"
        with pytest.raises(KeyError):
            spec.entry_for_input("other")

    def test_expected_region_bounds(self):
        spec = _tiny_vspec()
        region = spec.expected_region(Rect(0, 0, 10, 10))
        assert region.shape == (10, 10)
        with pytest.raises(ValueError):
            spec.expected_region(Rect(35, 55, 10, 10))

    def test_with_session_copies(self):
        spec = _tiny_vspec()
        fresh = spec.with_session("s2", {"session_id": "s2"})
        assert fresh.session_id == "s2"
        assert spec.session_id == "s1"
        assert fresh.entries is spec.entries

    def test_bad_entry_kind_rejected(self):
        with pytest.raises(ValueError):
            ManifestEntry(kind="hologram", rect=Rect(0, 0, 1, 1))

    def test_horizontal_scroll_entry_rejected(self):
        # Only vertically scrolling lists exist: a manifest (or a payload
        # rebuilt into one) naming a horizontal scrollable is refused.
        with pytest.raises(ValueError, match="scroll-h"):
            ManifestEntry(kind="scroll-h", rect=Rect(0, 0, 1, 1))
        spec = _tiny_vspec()
        payload = vspec_to_payload(spec)
        payload["entries"][1]["kind"] = "scroll-h"
        with pytest.raises(ValueError, match="scroll-h"):
            vspec_from_payload(payload, spec.expected)

    def test_nested_spec_scrolls_vertically_only(self):
        NestedSpec(axis="vertical", expected=np.zeros((8, 4)))
        with pytest.raises(ValueError, match="vertically"):
            NestedSpec(axis="horizontal", expected=np.zeros((4, 8)))


class TestValidationFunctions:
    def test_json_match_accepts_exact(self):
        spec = _tiny_vspec()
        assert run_validation(spec, {"amount": "5"}, {"amount": "5", "session_id": "s1"})

    def test_json_match_rejects_tampered_value(self):
        spec = _tiny_vspec()
        with pytest.raises(ValidationError, match="amount"):
            run_validation(spec, {"amount": "5"}, {"amount": "500", "session_id": "s1"})

    def test_json_match_rejects_missing_and_extra(self):
        spec = _tiny_vspec()
        with pytest.raises(ValidationError, match="missing"):
            run_validation(spec, {"amount": "5"}, {"session_id": "s1"})
        with pytest.raises(ValidationError, match="unexpected"):
            run_validation(
                spec, {"amount": "5"}, {"amount": "5", "bonus": "1", "session_id": "s1"}
            )

    def test_extra_fields_must_round_trip(self):
        spec = _tiny_vspec()
        with pytest.raises(ValidationError, match="session_id"):
            run_validation(spec, {"amount": "5"}, {"amount": "5", "session_id": "WRONG"})

    def test_constraint_validation_ops(self):
        spec = _tiny_vspec(
            validation=ConstraintValidation(
                constraints=(
                    Constraint("amount", "matches-observed"),
                    Constraint("amount", "numeric-max", 1000),
                    Constraint("amount", "nonempty"),
                    Constraint("currency", "in", ("USD", "EUR")),
                )
            )
        )
        body = {"amount": "250", "currency": "USD", "session_id": "s1"}
        assert run_validation(spec, {"amount": "250"}, body)
        with pytest.raises(ValidationError, match="exceeds"):
            run_validation(spec, {"amount": "2500"}, dict(body, amount="2500"))
        with pytest.raises(ValidationError, match="not in"):
            run_validation(spec, {"amount": "250"}, dict(body, currency="BTC"))
        with pytest.raises(ValidationError, match="not numeric"):
            run_validation(spec, {"amount": "abc"}, dict(body, amount="abc"))

    def test_unknown_constraint_op_rejected_at_build(self):
        with pytest.raises(ValueError):
            Constraint("a", "regex", ".*")

    def test_missing_validation_function(self):
        spec = _tiny_vspec(validation=None)
        with pytest.raises(ValidationError, match="no validation function"):
            run_validation(spec, {}, {"session_id": "s1"})


class TestVSpecSerialization:
    def test_digest_deterministic_and_session_sensitive(self):
        a = _tiny_vspec()
        b = _tiny_vspec()
        assert vspec_digest(a) == vspec_digest(b)
        c = _tiny_vspec(session_id="s2", extra_fields={"session_id": "s2"})
        assert vspec_digest(a) != vspec_digest(c)

    def test_digest_sensitive_to_expected_appearance(self):
        tampered_pixels = np.full((60, 40), 255.0)
        tampered_pixels[5, 5] = 0.0
        assert vspec_digest(_tiny_vspec()) != vspec_digest(_tiny_vspec(expected=tampered_pixels))

    def test_payload_round_trip(self):
        spec = _tiny_vspec()
        payload = vspec_to_payload(spec)
        rebuilt = vspec_from_payload(payload, spec.expected)
        assert vspec_digest(rebuilt) == vspec_digest(spec)
        assert rebuilt.entries[1].input_name == "amount"

    def test_payload_rejects_wrong_raster(self):
        spec = _tiny_vspec()
        payload = vspec_to_payload(spec)
        with pytest.raises(ValueError, match="digest"):
            vspec_from_payload(payload, np.zeros((60, 40)))

    @staticmethod
    def _issued_page():
        """A generated Jotform page with stateful inputs and a nested list."""
        spec = build_vspec(jotform_page(8, 640), "jotform-8", session_id="s1")
        assert sum(1 for e in spec.entries if e.state_appearances) == 2
        assert sum(len(n.entries) for n in spec.nested.values()) == 6
        return spec

    def test_generated_payload_round_trip_is_lossless(self):
        spec = self._issued_page()
        nested_expected = {key: n.expected for key, n in spec.nested.items()}
        rebuilt = vspec_from_payload(
            vspec_to_payload(spec), spec.expected, nested_expected, vspec_state_rasters(spec)
        )
        assert vspec_digest(rebuilt) == vspec_digest(spec)
        for got, want in zip(rebuilt.entries, spec.entries, strict=True):
            assert got.chars == want.chars and got.rect == want.rect
            assert list(got.state_appearances) == sorted(want.state_appearances)
            for value, appearance in want.state_appearances.items():
                assert np.array_equal(got.state_appearances[value], appearance)
        for key, nested in spec.nested.items():
            assert rebuilt.nested[key].entries == nested.entries

    def test_payload_rejects_missing_or_wrong_state_raster(self):
        spec = self._issued_page()
        payload = vspec_to_payload(spec)
        nested_expected = {key: n.expected for key, n in spec.nested.items()}
        rasters = vspec_state_rasters(spec)
        key = next(iter(rasters))
        missing = {k: v for k, v in rasters.items() if k != key}
        with pytest.raises(ValueError, match="missing state appearance"):
            vspec_from_payload(payload, spec.expected, nested_expected, missing)
        wrong = dict(rasters, **{key: 255.0 - rasters[key]})
        with pytest.raises(ValueError, match="state appearance .* digest"):
            vspec_from_payload(payload, spec.expected, nested_expected, wrong)

    def test_digest_binds_nested_entries(self):
        spec = self._issued_page()
        digest = vspec_digest(spec)
        (key, nested), = spec.nested.items()
        first, *rest = nested.entries
        dropped = NestedSpec(axis="vertical", expected=nested.expected, entries=rest)
        assert vspec_digest(VSpec(**{**vars(spec), "nested": {key: dropped}})) != digest
        cell = first.chars[0]
        edited_first = ManifestEntry(
            kind=first.kind,
            rect=first.rect,
            chars=[CharCell(cell.x, cell.y, cell.w, cell.h, "#"), *first.chars[1:]],
        )
        edited = NestedSpec(axis="vertical", expected=nested.expected, entries=[edited_first, *rest])
        assert vspec_digest(VSpec(**{**vars(spec), "nested": {key: edited}})) != digest


class TestSealing:
    def test_unseal_under_correct_state(self):
        state = MeasuredState.measure({"hv": b"xen", "core": b"v1"})
        key = generate_signing_key()
        sealed = SealedSigningKey(key, state)
        recovered = sealed.unseal(state)
        message = b"hello"
        key.public_key().verify(recovered.sign(message), message)

    def test_unseal_fails_after_component_tamper(self):
        state = MeasuredState.measure({"hv": b"xen", "core": b"v1"})
        sealed = SealedSigningKey(generate_signing_key(), state)
        evil = state.with_tampered("core", b"v1-with-rootkit")
        with pytest.raises(SealError):
            sealed.unseal(evil)

    def test_measurement_order_independent(self):
        a = MeasuredState.measure({"a": b"1", "b": b"2"})
        b = MeasuredState.measure({"b": b"2", "a": b"1"})
        assert a.digest() == b.digest()

    def test_tamper_unknown_component_raises(self):
        state = MeasuredState.measure({"a": b"1"})
        with pytest.raises(KeyError):
            state.with_tampered("zz", b"")


class TestCertificatesAndSignatures:
    def test_issue_and_verify(self):
        ca = CertificateAuthority()
        key = generate_signing_key()
        cert = ca.issue("client-7", key.public_key())
        ca.verify(cert)  # no exception

    def test_wrong_ca_rejected(self):
        ca1 = CertificateAuthority("ca-one")
        ca2 = CertificateAuthority("ca-two")
        cert = ca1.issue("c", generate_signing_key().public_key())
        with pytest.raises(CertificateError):
            ca2.verify(cert)

    def test_forged_certificate_rejected(self):
        ca = CertificateAuthority()
        cert = ca.issue("c", generate_signing_key().public_key())
        from dataclasses import replace

        forged = replace(cert, subject="admin")
        with pytest.raises(CertificateError):
            ca.verify(forged)

    def test_request_sign_verify_round_trip(self):
        ca = CertificateAuthority()
        key = generate_signing_key()
        cert = ca.issue("c", key.public_key())
        request = sign_request(key, {"amount": "5"}, "digest123", cert)
        verify_request(request, ca)  # no exception

    def test_body_tamper_breaks_signature(self):
        ca = CertificateAuthority()
        key = generate_signing_key()
        cert = ca.issue("c", key.public_key())
        request = sign_request(key, {"amount": "5"}, "digest123", cert)
        from dataclasses import replace

        tampered = replace(request, body={"amount": "5000"})
        with pytest.raises(SignatureError):
            verify_request(tampered, ca)
        rebound = replace(request, vspec_digest="other")
        with pytest.raises(SignatureError):
            verify_request(rebound, ca)

    def test_canonical_body_is_order_insensitive(self):
        assert canonical_body({"a": 1, "b": 2}) == canonical_body({"b": 2, "a": 1})
