"""Ablations of vWitness's design choices (paper §III-C and §IV-A; README "Verdict caching").

* Random vs periodic sampling against TOCTOU display flipping.
* Differential detection + caching vs full re-validation per frame.
"""

import numpy as np

from benchmarks.conftest import record_result


def test_ablation_sampling_vs_toctou(benchmark, scale, text_model, image_model):
    """Detection rate of display flipping: random vs periodic sampling."""
    from repro.attacks.tamper import overlay_rectangle
    from repro.attacks.toctou import DisplayFlipper
    from tests.conftest import TransferScenario

    def run_one(periodic: bool, seed: int) -> bool:
        scenario = TransferScenario(
            text_model, image_model, periodic_sampling=periodic, sampler_seed=seed
        )
        scenario.begin()
        honest = scenario.machine.sample_framebuffer().pixels.copy()
        overlay_rectangle(scenario.machine, 24, 44, 400, 30, color=252.0, text="Attacker text")
        tampered = scenario.machine.sample_framebuffer().pixels.copy()
        scenario.machine.framebuffer_handle().pixels[...] = honest
        # Attacker synchronized to the periodic 250ms grid: tampered content
        # shows only inside windows that avoid multiples of 250ms.
        flipper = DisplayFlipper(
            scenario.machine, honest, tampered,
            period_ms=250.0, tampered_fraction=0.4, offset_ms=-145.0,
        )
        flipper.drive(total_ms=2500.0)
        scenario.machine.framebuffer_handle().pixels[...] = honest
        decision = scenario.end(scenario.submit_body())
        return not decision.certified  # True = attack detected

    def run():
        trials = 6
        random_detect = sum(run_one(periodic=False, seed=s) for s in range(trials))
        periodic_detect = sum(run_one(periodic=True, seed=s) for s in range(trials))
        return trials, random_detect, periodic_detect

    trials, random_detect, periodic_detect = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        "Ablation — sampling schedule vs TOCTOU display flipping",
        "",
        f"random sampling:   detected {random_detect}/{trials} synchronized flip attacks",
        f"periodic sampling: detected {periodic_detect}/{trials}",
        "",
        "Shape (paper §III-C): randomized sampling makes the flip timing",
        "unpredictable; a fixed 250ms period can be dodged entirely by a",
        "synchronized attacker.",
    ]
    record_result("ablation_sampling", "\n".join(lines))
    assert random_detect > periodic_detect


def test_ablation_caching(benchmark, scale, text_model, image_model):
    """Differential detection + caches vs full re-validation per frame."""
    from benchmarks.harness import run_interactive_session

    def run():
        out = {}
        for label, caching in (("cached", True), ("uncached", False)):
            subsequent = []
            for seed in range(3):
                decision, report, _ = run_interactive_session(
                    seed, text_model, image_model, batched=True, caching=caching
                )
                assert decision.certified, decision.reason
                subsequent.extend(report.timing.subsequent_frame_times)
            out[label] = float(np.mean(subsequent))
        return out

    means = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = means["uncached"] / max(means["cached"], 1e-9)
    lines = [
        "Ablation — differential detection + caching (paper §IV-A)",
        "",
        f"subsequent-frame mean: cached {means['cached']:.3f}s, "
        f"uncached {means['uncached']:.3f}s ({speedup:.1f}x)",
        "",
        "Shape: caching + differential detection make subsequent frames",
        "substantially cheaper, which is what turns concurrent validation",
        "into a ~0.2s request delay for long sessions (Table IX).",
    ]
    record_result("ablation_caching", "\n".join(lines))
    assert means["cached"] < means["uncached"]
