"""Witness benchmark: one workload, timed from outside the witness.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit-typing --seed 0 --seconds 30 --trace 0

Workloads: ``scroll-typing``, ``fit-typing`` and ``session-start`` (see
``perfbench/workloads.py`` and ``perfbench/rationale.md``).  ``--seed``
(taken modulo 10 000) is the workload seed offset: it changes every page
a workload serves, never its composition.  ``--trace 0`` measures the end-to-end metrics with no
tracing; ``--trace 1`` is the separate traced run that reports per-layer
calls, busy time and p50 latency, the exact work counts, the share of
witness time no layer accounts for and the tracing overhead.

One process, one thread, BLAS pinned to one thread, string hashing seeded.
Trained models are kept under ``.bench_build/models/<hash of src>`` in
the checkout and the recorded work counts under
``.bench_build/counts/<hash of src and perfbench>``, so a change to the
code is never measured with another version's models or compared against
another version's counts.  The first run of a version trains its models
(a few minutes) in a child process, outside the measured one.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed when numpy loads and the string-hash seed when the
# interpreter starts; model training and set iteration order depend on
# both, so the benchmark re-executes itself with both pinned.
_PINNED = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in _PINNED.items()):
    os.environ.update(_PINNED)
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: The traced run fails its check when layers explain less witness time.
MIN_ATTRIBUTED = 0.90


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed offset")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _code_key(*trees: Path) -> str:
    """Hash of every Python file under ``trees``."""
    digest = hashlib.sha256()
    for tree in trees:
        for path in sorted(tree.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def _build_models() -> None:
    """Train (or just load) the models in a child process.

    Training's memory never shows in the measured process's peak RSS,
    which then only ever loads the trained models from disk.
    """
    subprocess.run(
        [sys.executable, "-c",
         "from repro.nn.zoo import get_image_model, get_text_model; "
         "get_text_model(); get_image_model()"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=sys.stderr,
        check=True,
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pct(values: list, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _check_counts(path: Path, counts: dict) -> bool:
    """Counts of this workload and seed must equal every earlier run's of
    the same code (``path`` lies under the code's hash)."""
    if path.exists():
        return json.loads(path.read_text()) == counts
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return True


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no witness sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ["REPRO_MODEL_DIR"] = str(BUILD / "models" / _code_key(SRC))
    os.environ["REPRO_MODEL_PROFILE"] = "fast"

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    jobs = workload.jobs(args.seed)

    from perfbench import guests
    from perfbench.gauge import Gauge, speed_factor
    from perfbench.layers import LayerTracer
    from repro.nn.zoo import clear_model_registry

    # Build step: train the models once per version of src (not part of set-up).
    _build_models()

    gauge = Gauge(guests.clock)
    setups, setup_gauge = [], []
    for _ in range(SETUPS):
        t0, spent = guests.clock(), gauge.spent_s
        clear_model_registry()
        guests.warm_up(guests.Deployment(gauge), workload.warmup_job())
        setups.append(guests.clock() - t0 - (gauge.spent_s - spent))
        setup_gauge += gauge.take()
    setup_speed = speed_factor(setup_gauge)
    rss_after_warmup = _peak_rss_mb()

    passes, traced = [], []
    tracer = LayerTracer(guests.clock) if args.trace else None
    t_start = guests.clock()
    while True:
        # The traced run alternates untraced and traced passes of the same
        # work, so the tracing overhead is measured on identical passes.
        trace_this = tracer is not None and len(passes) % 2 == 1
        if trace_this:
            tracer.install()
        try:
            passes.append(guests.run_pass(jobs, gauge))
        finally:
            if trace_this:
                tracer.uninstall()
        traced.append(trace_this)
        # Stop before a pass that would overrun the measuring time.
        now = guests.clock()
        if now + (now - t_start) / len(passes) > t_start + args.seconds and (
            tracer is None or len(passes) >= 2
        ):
            break
    peak_rss = _peak_rss_mb()

    first = passes[0]
    counts = first.counts()
    repeatable = all(p.counts() == counts for p in passes)
    counts_dir = BUILD / "counts" / _code_key(SRC, ROOT / "perfbench")
    repeatable &= _check_counts(counts_dir / f"{workload.name}-{args.seed}.json", counts)
    breaches = [r.key for r in first.records if r.breach]
    failures = [r for r in first.records if r.failed]

    # End-to-end figures come from the untraced passes, at reference speed.
    untraced = [p for p, t in zip(passes, traced) if not t]
    frames, starts, delays = [], [], []
    witness_s = raw_witness_s = 0.0
    for p in untraced:
        for r in p.records:
            frames.extend(f[0] * 1e3 * p.speed for f in r.frames if not f[2])
            starts.append(r.start_s * 1e3 * p.speed)
            delay = r.request_delay_s(p.speed)
            if delay is not None:
                delays.append(delay * 1e3)
        witness_s += p.witness_s * p.speed
        raw_witness_s += p.witness_s
    sessions = sum(len(p.records) for p in untraced)
    # The latency a user waits on: each validated frame after frame 0 while
    # typing; the whole session start where guests only open a page.
    latency = frames if workload.archetypes else starts

    e2e = {
        "setup_s": (statistics.median(setups) * setup_speed, "s"),
        "sessions_per_s": (sessions / witness_s, "1/s"),
        "latency_ms_p50": (_pct(latency, 50), "ms"),
        "latency_ms_p90": (_pct(latency, 90), "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    report = {
        "frame_ms_p50": (_pct(frames, 50), "ms") if frames else None,
        "frame_ms_p90": (_pct(frames, 90), "ms") if frames else None,
        "request_delay_ms_p50": (_pct(delays, 50), "ms") if delays else None,
        "session_start_ms_p50": (_pct(starts, 50), "ms"),
        "session_start_ms_p90": (_pct(starts, 90), "ms"),
        "raw_sessions_per_s": (sessions / raw_witness_s, "1/s"),
        "speed_factor": (statistics.median(p.speed for p in untraced), "ratio"),
    }

    correct = repeatable and not breaches
    print(f"workload {workload.name}  seed offset {args.seed}  trace {args.trace}")
    print(f"  set-ups (s, raw): {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"  passes {len(passes)}  sessions/pass {len(first.records)}  frames timed "
          f"{len(frames)}  session starts {len(starts)}  requests {len(delays)}")
    print(f"  witness s/pass {raw_witness_s / len(untraced):.3f}  guest s/pass "
          f"{sum(p.wall_s - p.witness_s for p in untraced) / len(untraced):.3f}  (raw)")
    for name, entry in {**e2e, **report}.items():
        print(f"  {name:<24} " + ("n/a" if entry is None else f"{entry[0]:12.4f} {entry[1]}"))
    print(f"  ops {len(first.records)}  ops_failed {len(failures)}")
    for r in failures:
        print(f"    failed: {r.key} ({r.script}) expected {r.expected}, got {r.decision}: "
              f"{r.reason if r.error is None else 'error ' + r.error}")
    for name, value in counts.items():
        print(f"  count {name:<22} {value}")
    if not repeatable:
        print("  EXACT-COUNT CHECK FAILED: counts differ between passes or from an "
              "earlier run of this code: " + "; ".join(str(p.counts()) for p in passes))
    if breaches:
        print(f"  TAMPER CERTIFIED: {breaches}")

    if tracer is None:
        metrics = e2e
    else:
        n_traced = sum(traced)
        traced_w = sum(p.witness_s for p, t in zip(passes, traced) if t)
        traced_ref = sum(p.witness_s * p.speed for p, t in zip(passes, traced) if t)
        unattributed = 1.0 - tracer.attributed_s() / traced_w
        lookups = counts["caches.digest_hits"] + counts["caches.digest_misses"]
        metrics = tracer.metrics(n_traced)
        # The exact counts; ``display.locate.calls`` replaces the traced
        # layer's per-pass mean with the same count taken on every pass.
        metrics.update({name: (float(value), "count") for name, value in counts.items()})
        metrics.update({
            "caches.digest_hit_ratio": (counts["caches.digest_hits"] / lookups, "ratio"),
            "process.rss_growth_mb": (peak_rss - rss_after_warmup, "MB"),
            "witness.unattributed_share": (unattributed, "ratio"),
            # Traced against untraced witness time of identical passes.
            "trace.overhead_share": (
                (traced_ref / n_traced) / (witness_s / len(untraced)) - 1.0, "ratio"),
            "gauge.speed_factor": report["speed_factor"],
        })
        for name, (value, unit) in metrics.items():
            print(f"  {name:<34} {value:12.4f} {unit}")
        if unattributed > 1.0 - MIN_ATTRIBUTED:
            print(f"  ATTRIBUTION CHECK FAILED: {unattributed:.1%} of witness time in no layer")
            correct = False

    print(json.dumps({
        "correct": correct,
        "attempted": len(first.records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
