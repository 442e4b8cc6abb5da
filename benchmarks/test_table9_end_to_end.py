"""Table IX: end-to-end performance of interactive sessions.

Full vWitness sessions with the honest-user model filling generated
forms: init + first frame, subsequent frame statistics (where the
differential-detection and caching machinery earns its keep), and the
validation-function + signing time.
"""

import numpy as np

from benchmarks.conftest import record_metrics, record_result
from benchmarks.harness import run_interactive_session, summarize


def test_table9_end_to_end(benchmark, scale, text_model, image_model):
    def run():
        out = {}
        for label, batched in (("CPU", False), ("GPU", True)):
            init_first, subsequent, request = [], [], []
            plan_units, forwards, frames = 0, 0, 0
            certified = 0
            for seed in range(scale["perf_pages"]):
                decision, report, _session = run_interactive_session(
                    seed, text_model, image_model, batched=batched
                )
                certified += bool(decision.certified)
                timing = report.timing
                init_first.append(timing.t_init + timing.t_first_frame)
                subsequent.extend(timing.subsequent_frame_times)
                request.append(timing.t_request)
                plan_units += report.plan_text_units + report.plan_image_pairs
                forwards += report.text_forwards + report.image_forwards
                frames += report.frames_sampled
            out[label] = {
                "init_first": float(np.mean(init_first)),
                "subsequent": summarize(subsequent),
                "request": float(np.mean(request)),
                "certified": certified,
                "total": scale["perf_pages"],
                "plan_units_per_frame": plan_units / max(frames, 1),
                "forwards_per_frame": forwards / max(frames, 1),
            }
        return out

    stats = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        "Table IX — end-to-end performance (s)",
        "",
        f"{'Setup':<6} {'Init+First':>11} {'Sub.Mean':>9} {'Sub.Max':>8} {'Sub.Min':>8} "
        f"{'Sub.Stdev':>9} {'Valid.fn':>9}",
    ]
    for label, s in stats.items():
        sub = s["subsequent"]
        lines.append(
            f"{label:<6} {s['init_first']:>11.3f} {sub['mean']:>9.3f} {sub['max']:>8.3f} "
            f"{sub['min']:>8.3f} {sub['stdev']:>9.3f} {s['request']:>9.3f}"
        )
    lines += [
        "",
        f"Certified sessions: CPU {stats['CPU']['certified']}/{stats['CPU']['total']}, "
        f"GPU {stats['GPU']['certified']}/{stats['GPU']['total']}",
        "",
        "Validation-plan sizes (per sampled frame):",
    ]
    for label in ("CPU", "GPU"):
        s = stats[label]
        lines.append(
            f"  {label}: mean plan units {s['plan_units_per_frame']:.1f}, "
            f"mean model forwards {s['forwards_per_frame']:.1f}"
        )
    lines += [
        "",
        "Paper (CPU/GPU): init+first 0.760/1.778, subsequent mean 0.194/0.161,",
        "validation fn 0.036/0.036.  Shape: subsequent frames are much cheaper",
        "than the first (differential detection + caches); request-time work",
        "is small and setup-independent.  GPU rows run frame-level plan",
        "batching: O(1) forwards per model kind per frame.",
    ]
    record_result("table9_end_to_end", "\n".join(lines))
    record_metrics(
        "table9_end_to_end",
        {
            "init_first_s": {
                "cpu": round(stats["CPU"]["init_first"], 4),
                "gpu": round(stats["GPU"]["init_first"], 4),
            },
            "subsequent_mean_s": {
                "cpu": round(stats["CPU"]["subsequent"]["mean"], 4),
                "gpu": round(stats["GPU"]["subsequent"]["mean"], 4),
            },
            "request_s": {
                "cpu": round(stats["CPU"]["request"], 4),
                "gpu": round(stats["GPU"]["request"], 4),
            },
        },
    )

    for label in ("CPU", "GPU"):
        s = stats[label]
        assert s["certified"] == s["total"], f"{label}: honest sessions must certify"
        assert s["subsequent"]["mean"] < s["init_first"]
        assert s["request"] < 0.2
    # Plan-level batching: same unit inputs, far fewer model forwards.
    assert (
        stats["GPU"]["forwards_per_frame"] * 5 < stats["CPU"]["forwards_per_frame"]
        or stats["CPU"]["forwards_per_frame"] == 0
    )
