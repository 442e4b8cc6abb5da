"""Table VIII: first-display-frame validation time, CPU vs GPU setups.

The paper's GPU gains come from batching model invocations; the
reproduction's "GPU" analogue is the batched vectorized inference path,
"CPU" the sequential one-invocation-at-a-time path.
"""

from benchmarks.conftest import record_metrics, record_result
from benchmarks.harness import jotform_first_frame, summarize


def _clickbench_times(scale, image_model, batched: bool):
    import gc
    import time

    from repro.core.caches import DigestCache
    from repro.core.verifiers import ImageVerifier
    from repro.datasets.clickbench import clickbench_dataset, validate_sample
    from repro.nn.model import PREDICT_CHUNK

    chunk_size = PREDICT_CHUNK if batched else 1

    samples = clickbench_dataset(count=min(scale["clickbench_samples"], 8), width=480, height=600)
    # Warm-up (untimed): the first large batched forward pays one-off
    # buffer-allocation costs that dwarf steady-state validation when the
    # heap is churned by earlier suite activity; Table VIII measures the
    # latter.
    validate_sample(samples[0], ImageVerifier(image_model, cache=DigestCache(), chunk_size=chunk_size))
    times = []
    for sample in samples:
        verifier = ImageVerifier(image_model, cache=DigestCache(), chunk_size=chunk_size)
        # Collect before every timed sample: a GC pause inherited from
        # earlier suite activity landing inside one measurement skews the
        # per-sample mean far more than steady-state validation varies.
        gc.collect()
        t0 = time.perf_counter()
        validate_sample(sample, verifier)
        times.append(time.perf_counter() - t0)
    return times


def test_table8_first_frame_times(benchmark, scale, text_model, image_model):
    plan_stats = {}

    def run():
        out = {}
        for label, batched in (("CPU", False), ("GPU", True)):
            jot = [
                jotform_first_frame(seed, text_model, image_model, batched=batched)
                for seed in range(scale["perf_pages"])
            ]
            out[(label, "Jotform")] = summarize(r.seconds for r in jot)
            plan_stats[label] = {
                "units": summarize(r.plan_units for r in jot),
                "forwards": summarize(r.forwards for r in jot),
            }
            out[(label, "Clickbench")] = summarize(
                _clickbench_times(scale, image_model, batched)
            )
        return out

    stats = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        "Table VIII — T(frame0): first display frame validation time (s)",
        "",
        f"{'Setup':<6} {'Dataset':<12} {'Mean':>8} {'Max':>8} {'Min':>8} {'Stdev':>8}",
    ]
    for (setup, dataset), s in stats.items():
        lines.append(
            f"{setup:<6} {dataset:<12} {s['mean']:>8.3f} {s['max']:>8.3f} "
            f"{s['min']:>8.3f} {s['stdev']:>8.3f}"
        )
    cpu_cb = stats[("CPU", "Clickbench")]["mean"]
    gpu_cb = stats[("GPU", "Clickbench")]["mean"]
    cpu_jf = stats[("CPU", "Jotform")]["mean"]
    gpu_jf = stats[("GPU", "Jotform")]["mean"]
    lines += [
        "",
        f"Batched speedup: Clickbench {cpu_cb / gpu_cb:.1f}x, Jotform {cpu_jf / gpu_jf:.1f}x",
        "",
        "Validation-plan sizes (Jotform, per frame):",
    ]
    for label in ("CPU", "GPU"):
        ps = plan_stats[label]
        lines.append(
            f"  {label}: mean plan units {ps['units']['mean']:.1f}, "
            f"mean model forwards {ps['forwards']['mean']:.1f}"
        )
    lines += [
        "",
        "Paper (CPU/GPU mean): Clickbench 3.29/0.73s, Jotform 1.17/0.88s.",
        "Shape: batching helps most where invocations are plentiful",
        "(Clickbench's whole-screen tiling), less on invocation-light forms.",
        "The GPU setup's frame-level plan batching collapses per-frame",
        "forwards to O(1) per model kind (plus retry rings).",
    ]
    record_result("table8_first_frame", "\n".join(lines))
    record_metrics(
        "table8_first_frame",
        {
            "jotform_mean_s": {"cpu": round(cpu_jf, 4), "gpu": round(gpu_jf, 4)},
            "clickbench_mean_s": {"cpu": round(cpu_cb, 4), "gpu": round(gpu_cb, 4)},
            "forwards_per_frame": {
                "cpu": round(plan_stats["CPU"]["forwards"]["mean"], 1),
                "gpu": round(plan_stats["GPU"]["forwards"]["mean"], 1),
            },
        },
    )

    assert gpu_cb < cpu_cb  # batching wins on the invocation-heavy dataset
    assert (cpu_cb / gpu_cb) > (cpu_jf / gpu_jf) * 0.8  # bigger win on Clickbench
    # Plan-level batching: batched frames need orders of magnitude fewer
    # forwards than sequential frames for the same plan sizes.
    assert plan_stats["GPU"]["units"]["mean"] == plan_stats["CPU"]["units"]["mean"]
    assert plan_stats["GPU"]["forwards"]["mean"] * 10 < plan_stats["CPU"]["forwards"]["mean"]
