"""Bucketed latency histograms behind the span tracer.

A :class:`MetricsRegistry` holds the per-stage span histograms of one
service (:mod:`repro.obs.spans`); its :meth:`MetricsRegistry.snapshot`
is Prometheus-shaped, so a deployment can lift it straight into its
metrics endpoint, but it has no external dependencies: histograms are
plain objects sharing one lock.

Instrument names are dotted paths (``span_ms.frame.locate``).
"""

from __future__ import annotations

import threading

#: Default histogram bucket upper bounds.
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)


class Histogram:
    """A bucketed distribution with count/sum/min/max.

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in the implicit overflow bucket (reported as ``inf``).
    """

    def __init__(self, lock: threading.Lock, buckets=DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram buckets must be sorted and non-empty: {buckets!r}")
        self._lock = lock
        self.bounds = tuple(buckets)
        self._bucket_counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self._bucket_counts[i] += 1
                    return
            self._bucket_counts[-1] += 1

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``0 <= q <= 100``).

        Linear interpolation within the containing bucket, with the
        observed ``min``/``max`` tightening the outermost bucket edges —
        so the estimate is *exact-bound*: it never leaves the containing
        bucket and never exceeds the observed value range.  With no
        observations the estimate is 0.
        """
        with self._lock:
            return self._percentile_locked(q)

    def _percentile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        q = min(max(q, 0.0), 100.0)
        target = q / 100.0 * self._count
        cum = 0
        prev_bound: float | None = None  # effectively -inf before bucket 0
        for i, count in enumerate(self._bucket_counts):
            bound = self.bounds[i] if i < len(self.bounds) else None  # None = overflow
            if count:
                lo = self._min if prev_bound is None else max(prev_bound, self._min)
                hi = self._max if bound is None else min(bound, self._max)
                hi = max(hi, lo)
                if cum + count >= target:
                    frac = (target - cum) / count
                    return lo + frac * (hi - lo)
                cum += count
            if bound is not None:
                prev_bound = bound
        return self._max  # pragma: no cover - float-rounding fallback

    def snapshot(self) -> dict:
        """Stable export: ``buckets`` keys cover every configured bound
        (zero counts included) in bound order, plus the numeric ``bounds``
        list and interpolated p50/p95/p99 — two snapshots of the same
        histogram always carry the same keys in the same order."""
        with self._lock:
            buckets = {}
            for bound, count in zip(self.bounds, self._bucket_counts):
                buckets[f"le_{bound:g}"] = count
            buckets["le_inf"] = self._bucket_counts[-1]
            return {
                "count": self._count,
                "sum": self._sum,
                "mean": self._sum / self._count if self._count else 0.0,
                "min": self._min,
                "max": self._max,
                "bounds": list(self.bounds),
                "buckets": buckets,
                "p50": self._percentile_locked(50.0),
                "p95": self._percentile_locked(95.0),
                "p99": self._percentile_locked(99.0),
            }


class MetricsRegistry:
    """Create-or-get registry of named histograms with one atomic snapshot."""

    def __init__(self) -> None:
        # One lock for registration, a second shared by every histogram:
        # snapshot() then sees each histogram atomically without holding
        # up registration, and histograms stay cheap to create.
        self._registry_lock = threading.Lock()
        self._data_lock = threading.Lock()
        self._histograms: dict = {}

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS) -> Histogram:
        with self._registry_lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(self._data_lock, buckets)
            return self._histograms[name]

    def snapshot(self) -> dict:
        """All histograms as plain nested dicts (JSON-serializable)."""
        with self._registry_lock:
            histograms = dict(self._histograms)
        return {
            "histograms": {name: h.snapshot() for name, h in sorted(histograms.items())},
        }
