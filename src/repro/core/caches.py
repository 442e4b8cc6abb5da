"""Validation caches and differential detection (paper §IV-A Performance).

Three caches exist in the prototype — text, image, and frame — each keyed
by a cryptographic digest of the corresponding display region.  Combined
with differential detection (only re-validating regions that changed
between consecutive screenshots), they are what makes subsequent-frame
validation an order of magnitude cheaper than the first frame
(Table VIII vs Table IX).

:class:`DifferentialDetector` keeps, per session, the pixels last
validated, the previous sample, a boolean buffer for the per-sample exact
comparison and the last fully diffed frame quantized to uint8.  Each
sample costs one whole-frame ``!=`` into the kept buffer; quantization
and the thresholded difference run only on what changed since the last
full diff, and nothing per sample allocates a whole-frame temporary.

:class:`DigestCache` is a thread-safe LRU: a ``get`` hit refreshes the
entry's recency and, at capacity, the least-recently-used entry is
evicted — a shared cross-session cache under pressure keeps the verdicts
sessions actually re-ask for.  ``None`` is reserved as the miss signal
and cannot be stored.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.vision.components import box_union
from repro.vision.diff import changed_regions
from repro.vision.image import to_uint8


#: Internal miss marker: distinguishes "key absent" from any stored value
#: in a single dict lookup, so hit/miss statistics and return semantics
#: can never disagree (``None`` is additionally rejected at ``put`` time,
#: because a ``None`` return is the public miss signal).
_MISSING = object()


class DigestCache:
    """A dict-backed digest->verdict LRU cache with hit/miss statistics.

    Thread-safe: one cache may be shared across every session of a
    :class:`repro.core.service.WitnessService`.  Verifiers of different
    kinds must not share a flat key space (a text-tile digest must never
    satisfy an image-region lookup), so consumers take a namespaced view
    via :meth:`scoped` rather than writing raw keys.

    Semantics:

    * ``get`` returns the stored value, or ``None`` on a miss; every call
      counts exactly one hit or one miss.  ``None`` is therefore not a
      storable value — ``put(key, None)`` raises instead of silently
      creating an entry that reads back as a miss while counting a hit.
    * Eviction is least-recently-used: a ``get`` hit refreshes recency,
      and at capacity the coldest entry is dropped — hot cross-session
      entries survive pressure.  Overwriting an existing key never
      evicts (the store does not grow).
    """

    def __init__(self, max_entries: int = 100_000) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        # dicts iterate in insertion order; recency is maintained by
        # re-inserting on every hit, so the first key is always the LRU.
        self._store: dict = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Fault-injection seam (``cache.error``): when set, called as
        #: ``fault_hook(op, key)`` before every lookup/store and may
        #: raise.  ``None`` (the default) costs one ``is None`` test.
        #: Consumers must treat a raising lookup as a miss — a broken
        #: cache degrades performance, never a verdict.
        self.fault_hook = None

    def get(self, key: str):
        hook = self.fault_hook
        if hook is not None:
            hook("get", key)
        with self._lock:
            value = self._store.pop(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return None
            self._store[key] = value  # re-insert: most recently used
            self.hits += 1
            return value

    def put(self, key: str, value) -> None:
        if value is None:
            raise ValueError(
                "DigestCache cannot store None: it is indistinguishable from a miss"
            )
        hook = self.fault_hook
        if hook is not None:
            hook("put", key)
        with self._lock:
            if key in self._store:
                self._store.pop(key)  # overwrite: refresh recency, no eviction
            elif len(self._store) >= self.max_entries:
                self._store.pop(next(iter(self._store)))  # evict the LRU entry
                self.evictions += 1
            self._store[key] = value

    def scoped(self, namespace: str) -> "ScopedDigestCache":
        """A view of this cache whose keys live under ``namespace``."""
        return ScopedDigestCache(self, namespace)

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """One atomic accounting snapshot (entries + hit/miss/eviction)."""
        with self._lock:
            hits, misses = self.hits, self.misses
            total = hits + misses
            return {
                "entries": len(self._store),
                "capacity": self.max_entries,
                "hits": hits,
                "misses": misses,
                "evictions": self.evictions,
                "hit_rate": hits / total if total else 0.0,
            }


class ScopedDigestCache:
    """A namespaced view over a shared :class:`DigestCache`.

    Every key is prefixed with ``<namespace>/`` before reaching the
    backing store, so two verifier kinds handed views of the same cache
    can never observe each other's verdicts even if their inner digests
    collide.  This is structural defense-in-depth: verifiers also prefix
    their own keys (``text:`` / ``img:``), but that discipline lives in
    each verifier's key-building code — the scoped view enforces
    disjointness regardless of what keys a (future) verifier writes.
    Hit/miss statistics aggregate on the parent.
    """

    def __init__(self, parent: DigestCache, namespace: str) -> None:
        if not namespace:
            raise ValueError("namespace must be non-empty")
        self.parent = parent
        self.namespace = str(namespace)

    def _qualify(self, key: str) -> str:
        return f"{self.namespace}/{key}"

    def get(self, key: str):
        return self.parent.get(self._qualify(key))

    def put(self, key: str, value) -> None:
        self.parent.put(self._qualify(key), value)

    def scoped(self, namespace: str) -> "ScopedDigestCache":
        return ScopedDigestCache(self.parent, f"{self.namespace}/{namespace}")

    def __len__(self) -> int:
        prefix = f"{self.namespace}/"
        with self.parent._lock:
            return sum(1 for k in self.parent._store if k.startswith(prefix))

    @property
    def hits(self) -> int:
        return self.parent.hits

    @property
    def misses(self) -> int:
        return self.parent.misses

    @property
    def evictions(self) -> int:
        return self.parent.evictions

    @property
    def hit_rate(self) -> float:
        return self.parent.hit_rate

    def stats(self) -> dict:
        return self.parent.stats()


class DifferentialDetector:
    """Tracks the last validated pixels and reports what changed since.

    ``changed(frame)`` returns ``None`` for the first frame (everything
    must be validated), an empty list when the frame is identical (the
    frame-cache fast path), or the changed rectangles in frame
    coordinates.

    The reference is not simply the previous frame: only the reported
    rectangles are copied from each new frame into it, so it holds the
    pixels as last re-validated.  A change below ``threshold`` per sample
    therefore accumulates against the reference until it is reported,
    instead of drifting through unseen one small step at a time; and a
    frame whose reported changes all lie inside some boxes differs from
    the pixels last validated only inside those boxes, by more than the
    threshold (what viewport tracking relies on).

    Per sample the detector makes one exact comparison with the previous
    sample, into a kept boolean buffer; everything after it is confined
    to the changed area.  It keeps:

    * the previous sample, updated inside each sample's change box, and
      that box (:attr:`change_box`, for consumers that carry their own
      per-frame state, such as the focus-outline search);
    * the box of everything that changed since the last frame that took
      the full path (the *base* frame): outside it, the sample equals the
      base frame exactly;
    * the base frame quantized to uint8.  A frame is "identical" when its
      quantization equals the base frame's, which only the accumulated
      box can break, so only that box is quantized (and nothing, when the
      sample is bit-equal to the base frame).

    After a full diff every pixel is within ``threshold`` of the
    reference, so a pixel unchanged since the base frame cannot be
    reported: the difference runs on the accumulated box alone (grown by
    the merge radius so the dilation sees what it would on the whole
    frame), and the regions equal the whole frame's.
    """

    def __init__(self, threshold: float = 4.0, merge_radius: int = 4) -> None:
        self.threshold = threshold
        self.merge_radius = merge_radius
        #: ``(y0, x0, y1, x1)`` of the pixels that differ from the previous
        #: sample (the whole frame when there was no comparable one), or
        #: ``None`` when the sample repeats the previous one bit for bit.
        self.change_box: tuple | None = None
        self._reference: np.ndarray | None = None
        self._last: np.ndarray | None = None
        self._unequal: np.ndarray | None = None
        self._base_quantized: np.ndarray | None = None
        self._since_base: tuple | None = None

    def changed(self, frame_pixels: np.ndarray):
        if self._last is None or self._last.shape != frame_pixels.shape:
            self._base_quantized = to_uint8(frame_pixels)
            self._reference = frame_pixels.copy()
            self._last = frame_pixels.copy()
            self._unequal = np.empty(frame_pixels.shape, dtype=bool)
            self._since_base = None
            self.change_box = (0, 0, *frame_pixels.shape)
            return None
        box = self.change_box = self._sample_change(frame_pixels)
        if box is not None:
            y0, x0, y1, x1 = box
            self._last[y0:y1, x0:x1] = frame_pixels[y0:y1, x0:x1]
            self._since_base = box if self._since_base is None else box_union(self._since_base, box)
        if self._since_base is None:
            return []
        y0, x0, y1, x1 = self._since_base
        quantized = to_uint8(frame_pixels[y0:y1, x0:x1])
        if np.array_equal(quantized, self._base_quantized[y0:y1, x0:x1]):
            # Displays as the base frame does: it is already within
            # ``threshold`` of the reference outside the rectangles copied in.
            return []
        h, w = frame_pixels.shape
        r = self.merge_radius
        gy0, gx0, gy1, gx1 = max(y0 - r, 0), max(x0 - r, 0), min(y1 + r, h), min(x1 + r, w)
        regions = [
            d.rect.translated(gx0, gy0)
            for d in changed_regions(
                self._reference[gy0:gy1, gx0:gx1],
                frame_pixels[gy0:gy1, gx0:gx1],
                threshold=self.threshold,
                merge_radius=r,
            )
        ]
        for rect in regions:
            self._reference[rect.y : rect.y2, rect.x : rect.x2] = (
                frame_pixels[rect.y : rect.y2, rect.x : rect.x2]
            )
        self._base_quantized[y0:y1, x0:x1] = quantized
        self._since_base = None
        return regions

    def _sample_change(self, frame_pixels: np.ndarray) -> tuple | None:
        """Box of the pixels where ``frame_pixels`` differs from the
        previous sample (one comparison into the kept buffer), or None."""
        unequal = np.not_equal(frame_pixels, self._last, out=self._unequal)
        rows = np.flatnonzero(unequal.any(axis=1))
        if not rows.size:
            return None
        y0, y1 = int(rows[0]), int(rows[-1]) + 1
        cols = np.flatnonzero(unequal[y0:y1].any(axis=0))
        return (y0, int(cols[0]), y1, int(cols[-1]) + 1)
