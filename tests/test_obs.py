"""The observability layer: span tracing, telemetry, flight recorder.

The contract under test has two halves:

* **Tracing is inert.**  ``maybe_span`` with a ``None`` tracer returns
  the shared no-op singleton (no allocation), and running the same
  scenario with tracing on vs off produces bit-identical session
  fingerprints — observability never touches a verdict.
* **Tracing is useful.**  Traced sessions produce a span tree with the
  canonical stage taxonomy and sane parentage, per-stage percentiles in
  the telemetry snapshot, valid Prometheus/JSON exports, and a bounded
  flight ring that violations dump to disk as JSON evidence.
"""

import json
import re
import threading

import pytest

from repro.core.caches import DigestCache
from repro.core.service import WitnessConfig, WitnessService
from repro.crypto import CertificateAuthority
from repro.obs import (
    NULL_SPAN,
    ROOT_STAGE,
    STAGES,
    FlightRecorder,
    FrameTrace,
    SpanTracer,
    maybe_span,
    span_snapshots,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.scenarios.soak import run_scenario
from repro.scenarios.spec import ScenarioSpec


# -- histogram percentiles -------------------------------------------------


def _histogram(bounds):
    return Histogram(threading.Lock(), bounds)


class TestMetrics:
    def test_histogram_snapshot(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("h", buckets=(1, 10))
        for v in (0.5, 5, 100):
            hist.observe(v)
        h = metrics.snapshot()["histograms"]["h"]
        assert h["count"] == 3 and h["min"] == 0.5 and h["max"] == 100
        assert h["buckets"] == {"le_1": 1, "le_10": 1, "le_inf": 1}
        assert h["mean"] == pytest.approx((0.5 + 5 + 100) / 3)

    def test_histograms_are_create_or_get(self):
        metrics = MetricsRegistry()
        assert metrics.histogram("y") is metrics.histogram("y")


def test_histogram_percentile_empty():
    h = _histogram((1, 10))
    assert h.percentile(50) == 0.0
    assert h.percentile(99) == 0.0


def test_histogram_percentile_interpolates_within_buckets():
    h = _histogram((1, 10, 100))
    for v in (0.5, 3, 7, 50, 200):
        h.observe(v)
    # p0/p100 clamp to the exact observed extremes.
    assert h.percentile(0) == 0.5
    assert h.percentile(100) == 200.0
    # Interior percentiles interpolate within bucket bounds, clamped to
    # the observed min/max: every estimate stays inside [min, max] and
    # they are monotone in q.
    estimates = [h.percentile(q) for q in (10, 25, 50, 75, 90, 95, 99)]
    assert all(0.5 <= e <= 200.0 for e in estimates)
    assert estimates == sorted(estimates)
    # The median of {0.5, 3, 7, 50, 200} must land in the (1, 10] bucket.
    assert 1.0 <= h.percentile(50) <= 10.0


def test_histogram_percentile_clamps_q():
    h = _histogram((1,))
    h.observe(0.5)
    h.observe(2.0)
    assert h.percentile(-10) == h.percentile(0) == 0.5
    assert h.percentile(150) == h.percentile(100) == 2.0


def test_histogram_snapshot_carries_bounds_and_percentiles():
    h = _histogram((1, 10))
    for v in (0.2, 5, 5, 20):
        h.observe(v)
    snap = h.snapshot()
    assert snap["bounds"] == [1, 10]
    assert snap["count"] == 4
    for key in ("p50", "p95", "p99"):
        assert isinstance(snap[key], float)
    # The buckets dict keeps its stable exact shape (bounds are a
    # sibling key, not merged into it).
    assert list(snap["buckets"]) == ["le_1", "le_10", "le_inf"]


# -- digest cache counters -------------------------------------------------


def test_digest_cache_counts_evictions():
    cache = DigestCache(max_entries=2)
    cache.put("a", (True,))
    cache.put("b", (True,))
    assert cache.evictions == 0
    cache.put("a", (False,))  # overwrite refreshes recency, never evicts
    assert cache.evictions == 0
    cache.put("c", (True,))  # at capacity: evicts the LRU entry ("b")
    assert cache.evictions == 1
    assert cache.get("b") is None  # miss
    assert cache.get("c") == (True,)  # hit
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["capacity"] == 2
    assert stats["evictions"] == 1
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["hit_rate"] == 0.5
    # The scoped view aggregates on the parent.
    scoped = cache.scoped("text")
    assert scoped.evictions == 1
    assert scoped.stats() == cache.stats()


# -- null span / disabled tracing ------------------------------------------


def test_maybe_span_disabled_is_the_shared_noop():
    assert maybe_span(None, "plan.execute") is NULL_SPAN
    assert maybe_span(None, "anything") is NULL_SPAN  # same object, always
    with maybe_span(None, "frame.sample"):
        pass  # no-op context manager


def test_maybe_span_enabled_times_the_stage():
    metrics = MetricsRegistry()
    tracer = SpanTracer(1, metrics)
    with maybe_span(tracer, "plan.collect"):
        pass
    snaps = span_snapshots(metrics)
    assert snaps["plan.collect"]["count"] == 1


# -- span tree shape -------------------------------------------------------


def test_span_tree_nests_by_thread_stack():
    metrics = MetricsRegistry()
    recorder = FlightRecorder(capacity=4)
    tracer = SpanTracer(7, metrics, recorder=recorder)
    tracer.begin_frame(0)
    with tracer.span("plan.execute"):
        with tracer.span("forward.text"):
            pass
    # A span opened on a *different* thread starts from an empty stack
    # and parents to the synthetic root.
    def pool_side():
        with tracer.span("forward.image"):
            pass

    t = threading.Thread(target=pool_side, name="pool-0")
    t.start()
    t.join()
    trace = tracer._trace
    by_stage = {s["stage"]: s for s in trace.spans}
    assert by_stage["forward.text"]["parent"] == "plan.execute"
    assert by_stage["plan.execute"]["parent"] == ROOT_STAGE
    assert by_stage["forward.image"]["parent"] == ROOT_STAGE
    assert by_stage["forward.image"]["thread"] == "pool-0"


# -- flight recorder -------------------------------------------------------


def _trace(session_id: int, index: int) -> FrameTrace:
    return FrameTrace(session_id=session_id, index=index)


def test_flight_ring_is_bounded_and_evicts_oldest():
    rec = FlightRecorder(capacity=4)
    for i in range(10):
        rec.record(_trace(1, i))
    assert len(rec) == 4
    stats = rec.stats()
    assert stats == {"capacity": 4, "frames": 4, "recorded": 10, "evicted": 6, "dumps": 0}
    frames = rec.snapshot()
    assert [f["index"] for f in frames] == [6, 7, 8, 9]  # oldest first


def test_flight_snapshot_filters_by_session():
    rec = FlightRecorder(capacity=8)
    for i in range(3):
        rec.record(_trace(1, i))
        rec.record(_trace(2, i))
    assert [f["index"] for f in rec.snapshot(session_ids={2})] == [0, 1, 2]
    assert all(f["session_id"] == 2 for f in rec.snapshot(session_ids={2}))


def test_flight_dump_writes_json_artifact(tmp_path):
    rec = FlightRecorder(capacity=4)
    for i in range(6):
        rec.record(_trace(3, i))
    path = rec.dump(str(tmp_path / "sub" / "ring.json"), reason="unit-test")
    payload = json.loads((tmp_path / "sub" / "ring.json").read_text())
    assert payload["reason"] == "unit-test"
    assert payload["recorded_total"] == 6
    assert payload["evicted_total"] == 2
    assert [f["index"] for f in payload["frames"]] == [2, 3, 4, 5]
    assert rec.stats()["dumps"] == 1
    assert path == str(tmp_path / "sub" / "ring.json")


# -- traced sessions end to end --------------------------------------------


SMALL_SPEC = ScenarioSpec("letterbox", script="honest")
TAMPERED_SPEC = ScenarioSpec("tall-form", script="tampered")


def _run(spec, text_model, image_model, **cfg_kwargs):
    cfg = WitnessConfig(batched=True, **cfg_kwargs)
    service = WitnessService(
        CertificateAuthority(), cfg, text_model=text_model, image_model=image_model
    )
    with service:
        outcome = run_scenario(spec.build(), service)
    return outcome, service


def test_tracing_preserves_fingerprint(text_model, image_model):
    off, _ = _run(SMALL_SPEC, text_model, image_model, tracing=False)
    on, _ = _run(SMALL_SPEC, text_model, image_model, tracing=True)
    assert on.fingerprint == off.fingerprint


def test_traced_session_produces_canonical_spans(text_model, image_model):
    outcome, service = _run(SMALL_SPEC, text_model, image_model, tracing=True)
    snaps = span_snapshots(service.span_metrics)
    assert snaps, "traced run produced no span histograms"
    # Only canonical stages appear, and the root covers every frame.
    assert set(snaps) <= set(STAGES)
    assert snaps[ROOT_STAGE]["count"] == outcome.frames
    assert {"frame.sample", "plan.collect", "plan.execute"} <= set(snaps)
    for snap in snaps.values():
        assert snap["p50"] <= snap["p95"] <= snap["p99"]
    # The flight ring holds the tail of the session's frames.
    recorder = service.flight_recorder
    assert recorder is not None and len(recorder) > 0
    for frame in recorder.snapshot():
        assert frame["session_id"] in outcome.session_ids
        for span in frame["spans"]:
            assert span["stage"] in STAGES
            # Parentage is either the synthetic root or another stage
            # recorded in this frame's tree vocabulary.
            assert span["parent"] in STAGES


def test_untraced_service_has_no_obs_state(text_model, image_model):
    _, service = _run(SMALL_SPEC, text_model, image_model, tracing=False)
    assert service.span_metrics is None
    assert service.flight_recorder is None


# -- violation-triggered artifacts -----------------------------------------


def test_violation_dumps_flight_artifact(text_model, image_model, tmp_path):
    from repro.server import WitnessedSite
    from repro.web import HonestUser
    from repro.web.extension import InputHint

    from tests.conftest import make_transfer_page

    config = WitnessConfig(batched=True, tracing=True, flight_dir=str(tmp_path))
    site = WitnessedSite(config=config, text_model=text_model, image_model=image_model)
    site.register_page("transfer", make_transfer_page())
    client = site.connect("transfer")
    user = HonestUser(client.browser)
    user.fill_text_input("recipient", "ACC-1")
    field = client.browser.page.find_input("amount")
    # A dishonest extension hints a value never shown on the display:
    # the witness records a violation, which must dump the flight ring.
    client.witness.receive_hint(
        InputHint(
            timestamp=client.machine.clock.now(),
            input_name="amount",
            rect=field.rect.as_tuple(),
            value="999999",
        )
    )
    client.machine.clock.advance(1200)
    decision = client.submit()
    assert not decision.certified
    artifacts = sorted(tmp_path.glob("flight-*.json"))
    assert artifacts, "violation produced no flight artifacts"
    payloads = [json.loads(p.read_text()) for p in artifacts]
    assert any(p["reason"].startswith("violation:") for p in payloads)
    violation_dump = next(p for p in payloads if p["reason"].startswith("violation:"))
    # The dump is written right after the offending frame seals, so the
    # ring's newest frames carry the recorded violation.
    assert any(f["violations"] for f in violation_dump["frames"])
    assert all(
        f["session_id"] == client.witness.id for f in violation_dump["frames"]
    )


def test_rejected_decision_dumps_flight_artifact(text_model, image_model, tmp_path):
    # Submission-level tampering never certifies; the rejected decision
    # ships the session's recent frames even though every frame rendered
    # cleanly (the tamper is in the submitted body, not the display).
    outcome, _ = _run(
        TAMPERED_SPEC, text_model, image_model, tracing=True, flight_dir=str(tmp_path)
    )
    payloads = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("flight-*.json"))]
    assert any(p["reason"].startswith("decision-rejected:") for p in payloads)
    for payload in payloads:
        assert payload["frames"], "artifact carries no frame traces"
        assert {f["session_id"] for f in payload["frames"]} <= set(outcome.session_ids)


# -- telemetry hub ---------------------------------------------------------


def test_service_stats_sections(text_model, image_model):
    _, service = _run(SMALL_SPEC, text_model, image_model, tracing=False)
    snap = service.telemetry()
    sessions = snap["sessions"]
    assert sessions == service.registry.stats()
    assert set(sessions) == {
        "active", "total_opened", "peak_active", "frames_tracked", "quarantined",
    }
    assert sessions["total_opened"] >= 1
    assert sessions["frames_tracked"] >= 0
    assert snap["cache"]["hits"] == service.shared_cache.hits
    assert set(snap["cache"]) == {
        "entries", "capacity", "hits", "misses", "evictions", "hit_rate",
    }
    assert snap["health"] == service.health()
    assert snap["health"]["state"] == "healthy"
    assert snap["health"]["quarantined_sessions"] == sessions["quarantined"] == 0


def test_telemetry_snapshot_sections_and_json(text_model, image_model):
    _, service = _run(SMALL_SPEC, text_model, image_model, tracing=True)
    snap = service.telemetry()
    d = snap.as_dict()
    assert set(d) == {
        "service", "sessions", "cache", "health", "faults", "spans", "flight",
    }
    assert d["service"]["tracing"] is True
    assert d["flight"]["recorded"] > 0
    # JSON round-trip.
    restored = json.loads(snap.to_json())
    assert restored["sessions"] == d["sessions"]
    assert set(restored["spans"]) == set(d["spans"])


def test_telemetry_prometheus_export(text_model, image_model):
    _, service = _run(SMALL_SPEC, text_model, image_model, tracing=True)
    text = service.telemetry().to_prometheus()
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    line_re = re.compile(r'^repro_[a-zA-Z0-9_]+(\{le="[^"]+"\})? (-?[0-9.eE+-]+|inf)$')
    for line in lines:
        assert line_re.match(line), f"malformed prometheus line: {line!r}"
    # Histogram contract: cumulative buckets are monotone and the +Inf
    # bucket equals the series count.
    frame_buckets = [
        float(l.rsplit(" ", 1)[1])
        for l in lines
        if l.startswith("repro_spans_frame_bucket{")
    ]
    assert frame_buckets == sorted(frame_buckets)
    count = next(
        float(l.rsplit(" ", 1)[1]) for l in lines if l.startswith("repro_spans_frame_count")
    )
    assert frame_buckets[-1] == count
    assert any(l.startswith("repro_spans_frame_p95") for l in lines)


# -- traced soak -----------------------------------------------------------


def test_traced_soak_percentiles_and_clean_run(text_model, image_model, tmp_path):
    from repro.scenarios.soak import ENGINE_COMBOS, combo_by_name, run_soak

    res = run_soak(
        [SMALL_SPEC],
        combos=(ENGINE_COMBOS[0], combo_by_name("sequential-inline-frozen")),
        text_model=text_model,
        image_model=image_model,
        tracing=True,
        flight_dir=str(tmp_path),
    )
    assert res.ok, res.summary()
    # Tracing on: the baseline combo's per-stage percentiles surface.
    assert "frame" in res.span_percentiles
    frame = res.span_percentiles["frame"]
    assert frame["count"] == res.frames_total // len(res.combos)
    assert frame["p50"] <= frame["p95"] <= frame["p99"]
    assert "frame latency" in res.summary()
    # A clean soak writes no divergence artifacts.
    assert res.flight_artifacts == []
    assert list(tmp_path.glob("*.json")) == []


def test_soak_divergence_artifact_helpers():
    from repro.scenarios.soak import ScenarioOutcome, _scenario_frames, _slug
    from repro.scenarios.spec import ScenarioSpec as Spec

    assert _slug("letterbox/honest seed=0") == "letterbox-honest-seed-0"
    ring = [
        {"session_id": 1, "index": 0},
        {"session_id": 2, "index": 0},
        {"session_id": 1, "index": 1},
    ]
    outcome = ScenarioOutcome(
        spec=Spec("letterbox"), combo="x", fingerprint=(), sessions=1,
        frames=2, certified=1, session_ids=[1],
    )
    assert _scenario_frames(ring, outcome) == [ring[0], ring[2]]
    assert _scenario_frames(ring, None) == []


def test_obs_cli_renders_flight_dump(tmp_path, capsys):
    from repro.obs.__main__ import main

    rec = FlightRecorder(capacity=4)
    trace = _trace(5, 0)
    trace.violations.append({"rule": "viewport", "detail": "lost"})
    trace.ok = False
    rec.record(trace)
    path = rec.dump(str(tmp_path / "ring.json"), reason="cli-test")
    assert main([path]) == 0
    out = capsys.readouterr().out
    assert "cli-test" in out
    assert "viewport" in out


def test_obs_cli_renders_telemetry(tmp_path, capsys, text_model, image_model):
    from repro.obs.__main__ import main

    _, service = _run(SMALL_SPEC, text_model, image_model, tracing=True)
    path = tmp_path / "telemetry.json"
    path.write_text(service.telemetry().to_json())
    assert main([str(path), "--format", "prom"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# ") or out.startswith("repro_")
