"""VSPEC serialization and digests.

The signed request embeds the VSPEC (paper §III-C3), which in practice
means embedding a canonical digest the server can compare against what it
issued.  Serialization is deterministic: the same VSPEC always produces
the same payload bytes and digest.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.vision.components import Rect
from repro.vspec.spec import CharCell, ManifestEntry, NestedSpec, VSpec
from repro.vspec.validation import Constraint, ConstraintValidation, JsonMatchValidation


def _validation_to_dict(validation) -> dict | None:
    if validation is None:
        return None
    if isinstance(validation, JsonMatchValidation):
        return {
            "type": "json-match",
            "fields": list(validation.fields),
            "allow_extra": validation.allow_extra,
        }
    if isinstance(validation, ConstraintValidation):
        return {
            "type": "constraints",
            "constraints": [
                {"field": c.fieldname, "op": c.op, "value": c.value}
                for c in validation.constraints
            ],
        }
    raise TypeError(f"cannot serialize validation {type(validation).__name__}")


def _validation_from_dict(data: dict | None):
    if data is None:
        return None
    if data["type"] == "json-match":
        return JsonMatchValidation(fields=tuple(data["fields"]), allow_extra=data["allow_extra"])
    if data["type"] == "constraints":
        return ConstraintValidation(
            constraints=tuple(
                Constraint(
                    fieldname=c["field"],
                    op=c["op"],
                    value=tuple(c["value"]) if isinstance(c["value"], list) else c["value"],
                )
                for c in data["constraints"]
            )
        )
    raise ValueError(f"unknown validation type {data['type']!r}")


def _entry_to_dict(entry: ManifestEntry) -> dict:
    return {
        "kind": entry.kind,
        "rect": entry.rect.as_tuple(),
        "chars": [(c.x, c.y, c.w, c.h, c.char) for c in entry.chars],
        "input_name": entry.input_name,
        "text_size": entry.text_size,
        "states": sorted(entry.state_appearances),
        "nested_id": entry.nested_id,
        "initial_value": entry.initial_value,
    }


def _array_digest(arr: np.ndarray) -> str:
    quantized = np.clip(np.rint(np.asarray(arr)), 0, 255).astype(np.uint8)
    h = hashlib.sha256()
    h.update(str(quantized.shape).encode("ascii"))
    h.update(quantized.tobytes())
    return h.hexdigest()


def vspec_state_rasters(vspec: VSpec) -> dict:
    """Every entry's state appearances, keyed ``"<entry index>:<value>"``.

    The keys of the payload's ``state_digests``: these rasters travel out
    of band with the expected appearance.
    """
    return {
        f"{i}:{value}": appearance
        for i, entry in enumerate(vspec.entries)
        for value, appearance in sorted(entry.state_appearances.items())
    }


def vspec_to_payload(vspec: VSpec) -> dict:
    """Canonical JSON-able description of a VSPEC (images as digests)."""
    return {
        "page_id": vspec.page_id,
        "width": vspec.width,
        "height": vspec.height,
        "background": vspec.background,
        "session_id": vspec.session_id,
        "extra_fields": dict(sorted(vspec.extra_fields.items())),
        "expected_digest": _array_digest(vspec.expected),
        "entries": [_entry_to_dict(e) for e in vspec.entries],
        "state_digests": {
            key: _array_digest(appearance) for key, appearance in vspec_state_rasters(vspec).items()
        },
        "nested": {
            key: {
                "axis": n.axis,
                "expected_digest": _array_digest(n.expected),
                "entries": [_entry_to_dict(e) for e in n.entries],
            }
            for key, n in sorted(vspec.nested.items())
        },
        "validation": _validation_to_dict(vspec.validation),
    }


def vspec_digest(vspec: VSpec) -> str:
    """SHA-256 over the canonical payload — what gets signed and echoed."""
    payload = json.dumps(vspec_to_payload(vspec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _verified(raster, digest: str | None, what: str) -> np.ndarray:
    if raster is None:
        raise ValueError(f"missing {what}")
    if _array_digest(raster) != digest:
        raise ValueError(f"{what} does not match payload digest")
    return raster


def _entries_from_dicts(entries: list, state_digests: dict, state_rasters: dict) -> list:
    rebuilt = []
    for i, data in enumerate(entries):
        states = {}
        for value in data["states"]:
            key = f"{i}:{value}"
            states[value] = _verified(
                state_rasters.get(key), state_digests.get(key), f"state appearance {key!r}"
            )
        rebuilt.append(
            ManifestEntry(
                kind=data["kind"],
                rect=Rect(*data["rect"]),
                chars=[CharCell(x, y, w, h, ch) for x, y, w, h, ch in data["chars"]],
                input_name=data["input_name"],
                text_size=data["text_size"],
                state_appearances=states,
                nested_id=data["nested_id"],
                initial_value=data["initial_value"],
            )
        )
    return rebuilt


def vspec_from_payload(
    payload: dict,
    expected: np.ndarray,
    nested_expected: dict | None = None,
    state_rasters: dict | None = None,
) -> VSpec:
    """Rebuild a VSpec from a payload plus the rasters it references.

    Rasters travel out-of-band (they are large): ``expected``, the nested
    appearances keyed like the payload's ``nested``, and the state
    appearances keyed like its ``state_digests`` (see
    :func:`vspec_state_rasters`).  The payload pins each by digest, and
    this constructor re-verifies every binding, raising on a raster that
    is missing or does not match.
    """
    _verified(expected, payload["expected_digest"], "expected appearance")
    nested_expected = nested_expected or {}
    state_rasters = state_rasters or {}
    nested = {}
    for key, meta in payload["nested"].items():
        arr = _verified(
            nested_expected.get(key), meta["expected_digest"], f"nested appearance {key!r}"
        )
        nested[key] = NestedSpec(
            axis=meta["axis"], expected=arr, entries=_entries_from_dicts(meta["entries"], {}, {})
        )
    return VSpec(
        page_id=payload["page_id"],
        width=payload["width"],
        height=payload["height"],
        expected=expected,
        entries=_entries_from_dicts(payload["entries"], payload["state_digests"], state_rasters),
        background=payload["background"],
        validation=_validation_from_dict(payload["validation"]),
        session_id=payload["session_id"],
        extra_fields=dict(payload["extra_fields"]),
        nested=nested,
    )
