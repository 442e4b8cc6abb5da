"""VSPEC data model."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.vision.components import Rect

#: Manifest entry kinds.  ``scroll-v`` is a vertically scrolling list
#: (the only scrollable the generator issues); ``input`` covers free-text
#: fields whose content is user-supplied; the stateful visual inputs carry
#: per-state appearances.
ENTRY_KINDS = (
    "text",
    "image",
    "input",
    "checkbox",
    "radio",
    "select",
    "button",
    "scroll-v",
)


@dataclass(frozen=True)
class CharCell:
    """One expected character: its cell rectangle and the character.

    This is the ``(x, y, w, h, 'H')`` tuple of the paper's Fig. 3b.
    """

    x: int
    y: int
    w: int
    h: int
    char: str

    @property
    def rect(self) -> Rect:
        return Rect(self.x, self.y, self.w, self.h)


@dataclass
class ManifestEntry:
    """One UI element in the elements manifest.

    Attributes:
        kind: one of :data:`ENTRY_KINDS`.
        rect: bounding rectangle in page coordinates.
        chars: per-character ground truth (text entries, input labels,
            and the *rendered value text* inside stateful inputs).
        input_name: form field name (inputs/checkbox/radio/select/scroll).
        text_size: rendered character size inside an input field.
        state_appearances: value -> expected raster for visual inputs
            whose state maps to a well-defined appearance (paper §III-C2);
            keyed by the form value each state submits.
        nested_id: key into the VSPEC's nested specs (scrollables).
    """

    kind: str
    rect: Rect
    chars: list = field(default_factory=list)
    input_name: str | None = None
    text_size: int = 14
    state_appearances: dict = field(default_factory=dict)
    nested_id: str | None = None
    #: The field's value as rendered in the expected appearance (empty for
    #: free-text inputs; the pre-selected option for selects, etc.).
    initial_value: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ENTRY_KINDS:
            raise ValueError(f"unknown manifest entry kind {self.kind!r}")

    @property
    def is_user_input(self) -> bool:
        return self.input_name is not None


@dataclass
class NestedSpec:
    """Nested VSPEC for an independently scrollable element (§III-C1).

    ``expected`` merges *all* possible appearances of the scrollable —
    for a vertical list, every row stacked at full height.  ``entries``
    are manifest entries in the nested coordinate space.  The display
    validator searches nested viewports vertically only, so ``axis`` must
    be ``"vertical"``.
    """

    axis: str
    expected: np.ndarray
    entries: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.axis != "vertical":
            raise ValueError(f"nested specs scroll vertically only, got axis {self.axis!r}")


@dataclass
class VSpec:
    """A complete page interaction specification."""

    page_id: str
    width: int
    height: int
    expected: np.ndarray
    entries: list = field(default_factory=list)
    background: float = 255.0
    validation: object | None = None
    session_id: str = ""
    extra_fields: dict = field(default_factory=dict)
    nested: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        exp = np.asarray(self.expected)
        if exp.shape != (self.height, self.width):
            raise ValueError(
                f"expected appearance shape {exp.shape} != ({self.height}, {self.width})"
            )

    def visible_entries(self, viewport: Rect) -> list:
        """Entries whose bounding rectangle overlaps the viewport."""
        return [e for e in self.entries if e.rect.intersects(viewport)]

    def input_entries(self) -> list:
        return [e for e in self.entries if e.is_user_input]

    def entry_for_input(self, name: str) -> ManifestEntry:
        for entry in self.entries:
            if entry.input_name == name:
                return entry
        raise KeyError(f"no manifest entry for input {name!r}")

    def expected_region(self, rect: Rect) -> np.ndarray:
        """Crop the expected appearance at a manifest rectangle."""
        if rect.x < 0 or rect.y < 0 or rect.x2 > self.width or rect.y2 > self.height:
            raise ValueError(f"rect {rect} escapes the expected appearance")
        return self.expected[rect.y : rect.y2, rect.x : rect.x2]

    def with_session(self, session_id: str, extra_fields: dict | None = None) -> "VSpec":
        """Per-request copy carrying a fresh session nonce (server-side)."""
        return VSpec(
            page_id=self.page_id,
            width=self.width,
            height=self.height,
            expected=self.expected,
            entries=self.entries,
            background=self.background,
            validation=self.validation,
            session_id=session_id,
            extra_fields=dict(extra_fields or self.extra_fields),
            nested=self.nested,
        )
