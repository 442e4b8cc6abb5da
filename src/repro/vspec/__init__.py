"""VSPEC: the server-supplied page interaction specification (paper §III).

A VSPEC describes, for one protected page at one client width:

* the **expected appearance** — the "long" reference rendering of the
  page at the client width and full height (Fig. 3a);
* the **elements manifest** — every UI element's type, bounding rectangle
  and ground truth (per-character cells for text, reference regions for
  images, state appearances for visual inputs) (Fig. 3b);
* **nested VSPECs** for independently scrollable elements;
* the **validation function** — a data-driven description of how the
  outgoing request must relate to the observed user inputs;
* a **session ID** nonce for freshness, added by the server per request.
"""

from repro.vspec.spec import (
    CharCell,
    ManifestEntry,
    NestedSpec,
    VSpec,
)
from repro.vspec.validation import (
    ConstraintValidation,
    JsonMatchValidation,
    ValidationError,
    run_validation,
)
from repro.vspec.serialize import (
    vspec_digest,
    vspec_from_payload,
    vspec_state_rasters,
    vspec_to_payload,
)

__all__ = [
    "VSpec",
    "ManifestEntry",
    "CharCell",
    "NestedSpec",
    "JsonMatchValidation",
    "ConstraintValidation",
    "ValidationError",
    "run_validation",
    "vspec_digest",
    "vspec_to_payload",
    "vspec_from_payload",
    "vspec_state_rasters",
]
