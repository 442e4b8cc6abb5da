"""Table VII: accuracy of the output validator on a single display frame.

* Clickbench: tampered screenshot pairs validated with the whole-screen
  pseudo-VSPEC (graphics model only) — measures TP/FN; the paper saw one
  FN (text injected into an image) that the *text* model caught when
  invoked in follow-up.
* Jotform: benign cross-stack renderings validated against their VSPECs —
  measures TN/FP.
"""

from benchmarks.conftest import record_result
from benchmarks.harness import jotform_first_frame


def test_table7_validator_accuracy(benchmark, scale, text_model, image_model):
    from repro.core.caches import DigestCache
    from repro.core.verifiers import ImageVerifier
    from repro.datasets.clickbench import clickbench_dataset, validate_sample

    def run():
        samples = clickbench_dataset(count=scale["clickbench_samples"], width=480, height=600)
        cb = {"tp": 0, "fn": 0, "tn": 0, "fp": 0, "fn_names": []}
        for sample in samples:
            verifier = ImageVerifier(image_model, cache=DigestCache())
            accepted = validate_sample(sample, verifier)
            if sample.tampered and not accepted:
                cb["tp"] += 1
            elif sample.tampered and accepted:
                cb["fn"] += 1
                cb["fn_names"].append(f"{sample.name}({sample.attack})")
            elif not sample.tampered and accepted:
                cb["tn"] += 1
            else:
                cb["fp"] += 1
        jot = [
            jotform_first_frame(seed, text_model, image_model, batched=True)
            for seed in range(scale["jotform_pages"])
        ]
        return cb, jot

    cb, jot = benchmark.pedantic(run, rounds=1, iterations=1)
    jot_tn = sum(1 for r in jot if r.ok)
    jot_fp = len(jot) - jot_tn
    cb_total = cb["tp"] + cb["fn"] + cb["tn"] + cb["fp"]
    cb_acc = (cb["tp"] + cb["tn"]) / cb_total
    jot_acc = jot_tn / len(jot)

    lines = [
        "Table VII — output validator accuracy on a single display frame",
        "",
        f"{'Dataset':<12} {'TP/TN':>7} {'FP/FN':>7} {'Accuracy':>9}",
        f"{'Clickbench':<12} {cb['tp'] + cb['tn']:>7} {cb['fp'] + cb['fn']:>7} {cb_acc * 100:>8.1f}%",
        f"{'Jotform':<12} {jot_tn:>7} {jot_fp:>7} {jot_acc * 100:>8.1f}%",
        "",
        f"Clickbench false negatives: {cb['fn_names'] or 'none'}",
        "",
        "Paper: Clickbench 39/1 (97.5%), Jotform 100/0 (100%).  The paper's",
        "single FN was text tampering inside an image, caught by the text",
        "model in follow-up analysis.",
    ]
    record_result("table7_accuracy", "\n".join(lines))

    assert cb_acc >= 0.8
    assert jot_acc >= 0.9
