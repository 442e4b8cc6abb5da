"""The telemetry hub: one namespaced snapshot of every stats island.

Observability grew organically, one island per subsystem: cache
accounting on the :class:`~repro.core.caches.DigestCache`, session
counters in the :class:`~repro.core.service.SessionRegistry`, span
latencies in the span metrics.  :func:`build_snapshot` federates them
into one :class:`TelemetrySnapshot` with stable namespaces::

    service   batched/caching/tracing knobs
    sessions  registry counters (active/total_opened/peak_active/
              frames_tracked/quarantined), one consistent snapshot
    cache     DigestCache stats (entries/hits/misses/evictions/hit_rate)
    health    degradation-ladder state (healthy/degraded, quarantine
              counter, fault-injector arming)
    faults    fault-injector schedule accounting (per-point calls/fires),
              or None when no FaultPlan is armed
    spans     per-stage latency histograms incl. p50/p95/p99, or {}
    flight    flight-recorder ring stats, or None

Exports: :meth:`~TelemetrySnapshot.to_json` (stable, sorted keys),
:meth:`~TelemetrySnapshot.to_prometheus` (text exposition format:
scalars as gauges, histograms as cumulative ``_bucket``/``_sum``/
``_count`` series), and :meth:`~TelemetrySnapshot.describe` (human
summary; also behind ``python -m repro.obs``).

CONTRIBUTING rule: a new subsystem that keeps stats must surface them
through a namespace here — islands don't get rediscovered by operators.
The frozen engine's scratch has no namespace: it is one grow-only
workspace per net and thread, whose only counter (``allocations``)
exists for the steady-state tests.
"""

from __future__ import annotations

import json
import re

from repro.obs.spans import span_snapshots

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")


class TelemetrySnapshot:
    """One point-in-time federation of every subsystem's stats."""

    def __init__(self, sections: dict) -> None:
        self.sections = sections

    def __getitem__(self, name: str):
        return self.sections[name]

    def as_dict(self) -> dict:
        return self.sections

    def to_json(self) -> str:
        """Stable JSON: sorted keys, so equal snapshots serialize equally."""
        return json.dumps(self.sections, indent=2, sort_keys=True, default=str)

    # -- Prometheus text exposition ---------------------------------------

    def to_prometheus(self) -> str:
        """The snapshot in Prometheus text format (metric prefix ``repro_``).

        Numeric scalars become gauges named by their namespace path;
        histogram-shaped dicts (anything carrying ``buckets``) become
        cumulative ``_bucket{le="..."}`` series plus ``_sum``/``_count``
        and ``_p50``/``_p95``/``_p99`` gauges.  Strings, ``None`` and raw
        per-thread lists are skipped — they are JSON-side detail.
        """
        lines: list = []
        self._emit("repro", self.sections, lines)
        return "\n".join(lines) + "\n"

    def _emit(self, prefix: str, value, lines: list) -> None:
        if isinstance(value, dict):
            if "buckets" in value and "count" in value:
                self._emit_histogram(prefix, value, lines)
                return
            for key, sub in sorted(value.items()):
                self._emit(f"{prefix}_{_sanitize(key)}", sub, lines)
        elif isinstance(value, bool):
            lines.append(f"{prefix} {int(value)}")
        elif isinstance(value, (int, float)):
            lines.append(f"{prefix} {_fmt(value)}")
        # str / None / list: JSON-side detail, not a time series.

    def _emit_histogram(self, name: str, snap: dict, lines: list) -> None:
        counts = list(snap["buckets"].values())
        bounds = snap.get("bounds", [])
        cum = 0
        for bound, count in zip(bounds, counts):
            cum += count
            lines.append(f'{name}_bucket{{le="{bound:g}"}} {cum}')
        cum += counts[-1] if len(counts) > len(bounds) else 0
        lines.append(f'{name}_bucket{{le="+Inf"}} {cum}')
        lines.append(f"{name}_sum {_fmt(snap['sum'])}")
        lines.append(f"{name}_count {snap['count']}")
        for q in ("p50", "p95", "p99"):
            if q in snap:
                lines.append(f"{name}_{q} {_fmt(snap[q])}")

    # -- human summary -----------------------------------------------------

    def describe(self) -> str:
        """A terse operator-facing summary of the interesting numbers."""
        s = self.sections
        lines = [
            "repro telemetry",
            "  service: batched={batched} caching={caching} tracing={tracing}".format(
                **s["service"]
            ),
            "  sessions: active={active} opened={total_opened} peak={peak_active} "
            "tracked={frames_tracked}".format(
                **s["sessions"]
            ),
        ]
        cache = s.get("cache")
        if cache:
            lines.append(
                "  cache: {entries}/{capacity} entries, {hits} hits / {misses} misses "
                "({rate:.1%} hit rate), {evictions} evictions".format(
                    rate=cache["hit_rate"], **{k: cache[k] for k in
                    ("entries", "capacity", "hits", "misses", "evictions")}
                )
            )
        spans = s.get("spans") or {}
        if spans:
            lines.append("  spans (ms):")
            for stage in sorted(spans):
                snap = spans[stage]
                lines.append(
                    f"    {stage:<22} n={snap['count']:<6} "
                    f"p50={snap['p50']:.3f} p95={snap['p95']:.3f} p99={snap['p99']:.3f}"
                )
        flight = s.get("flight")
        if flight:
            lines.append(
                "  flight: {frames}/{capacity} frames buffered, {recorded} recorded, "
                "{evicted} evicted, {dumps} dumps".format(**flight)
            )
        health = s.get("health")
        if health:
            lines.append(
                "  health: state={state} quarantined={quarantined_sessions}".format(
                    **health
                )
            )
        faults = s.get("faults")
        if faults:
            lines.append(
                "  faults: plan={plan} fired={total_fired}".format(**faults)
            )
        return "\n".join(lines)


def _sanitize(name) -> str:
    return _NAME_OK.sub("_", str(name))


def _fmt(value) -> str:
    if value is None:
        return "0"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def build_snapshot(service) -> TelemetrySnapshot:
    """Federate ``service``'s stats islands into one snapshot.

    The implementation of :meth:`repro.core.service.WitnessService.telemetry`.
    """
    cfg = service.config
    cache = service.shared_cache
    recorder = service.flight_recorder
    sessions = service.registry.stats()
    sections = {
        "service": {
            "batched": cfg.batched,
            "caching": cfg.caching,
            "tracing": cfg.tracing,
        },
        "sessions": sessions,
        "cache": cache.stats() if cache is not None else None,
        "health": service.health(sessions),
        "faults": (
            service.fault_injector.snapshot()
            if service.fault_injector is not None
            else None
        ),
        "spans": span_snapshots(service.span_metrics),
        "flight": recorder.stats() if recorder is not None else None,
    }
    return TelemetrySnapshot(sections)
