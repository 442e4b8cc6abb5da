"""witness-lint checker tests: each rule flags its historical bug shape.

The fixture tree under ``tests/analysis_fixtures/witnessfix`` mirrors the
``repro`` package layout (the analysis config is re-rooted onto it with
:meth:`AnalysisConfig.scoped_to`), with one module per checker containing
the exact shapes of the PR 3/4/5 incidents the rules descend from, plus
known-good twins that must stay silent.  Assertions are exact — rule IDs
*and* line numbers — so a checker that drifts (new false positive, lost
detection, off-by-one location) fails loudly.
"""

from __future__ import annotations

import pathlib
from dataclasses import replace

import pytest

from repro.analysis.checkers import all_rules
from repro.analysis.core import AnalysisConfig
from repro.analysis.runner import run_analysis

FIXTURES = pathlib.Path(__file__).resolve().parent / "analysis_fixtures" / "witnessfix"


@pytest.fixture(scope="module")
def result():
    config = AnalysisConfig().scoped_to("witnessfix")
    return run_analysis([str(FIXTURES)], config=config)


def findings_for(result, filename):
    return sorted(
        (f.line, f.rule) for f in result.findings if f.path.endswith(filename)
    )


def test_fixture_tree_resolves(result):
    # 10 fixture modules + 5 __init__.py — nothing skipped, nothing doubled.
    assert result.modules_scanned == 15


def test_dtype_checker_flags_pr4_shapes(result):
    assert findings_for(result, "vision/bad_dtype.py") == [
        (7, "dtype-missing"),   # np.zeros without dtype=
        (11, "dtype-missing"),  # np.asarray over a float literal
        (15, "dtype-float64"),  # astype(np.float64)
        (19, "dtype-float64"),  # dtype=float
        (23, "dtype-float64"),  # dtype="float64"
    ]


def test_determinism_checker_flags_pr5_shapes(result):
    assert findings_for(result, "core/bad_det.py") == [
        (10, "det-wallclock"),     # time.time()
        (14, "det-unseeded-rng"),  # random.random()
        (18, "det-unseeded-rng"),  # legacy np.random.rand
        (22, "det-unseeded-rng"),  # default_rng() without a seed
        (36, "det-id-key"),        # the padded-expected cache bug shape
        (40, "det-set-order"),     # list({...}) order escape
    ]


def test_lock_checker_flags_pr3_registry_race(result):
    assert findings_for(result, "core/bad_locks.py") == [
        (15, "lock-guard"),  # self._total_opened += 1 outside the lock
        (18, "lock-guard"),  # self._sessions = {} outside the lock
    ]


def test_lock_order_checker_flags_undeclared_nesting(result):
    assert findings_for(result, "core/bad_lock_order.py") == [
        (11, "lock-order"),  # ab(): B under A
        (17, "lock-order"),  # ba(): A under B — the other half
        (22, "lock-order"),  # with _A, _B: in one statement
        (33, "lock-order"),  # self._stats_lock under self._lock
    ]


def test_lock_order_message_names_both_locks(result):
    [finding] = [
        f for f in result.findings if f.path.endswith("core/bad_lock_order.py") and f.line == 33
    ]
    assert "witnessfix.core.bad_lock_order.Matcher._stats_lock while holding" in finding.message
    assert finding.message.endswith(
        "witnessfix.core.bad_lock_order.Matcher._lock — an order the declared "
        "lock ledger does not list"
    )


def test_declared_nesting_is_silent_only_through_the_ledger():
    # witnessfix/obs/metrics.py nests _registry_lock -> _data_lock, the
    # pair the re-rooted ledger declares; without the ledger it fires.
    config = replace(AnalysisConfig().scoped_to("witnessfix"), declared_lock_order=())
    res = run_analysis([str(FIXTURES / "obs" / "metrics.py")], config=config)
    assert [(f.line, f.rule) for f in res.findings] == [(14, "lock-order")]


def test_escape_checker_flags_stash_and_handoff(result):
    assert findings_for(result, "core/bad_escape.py") == [
        (15, "conc-escape"),  # row stored on self._keep
        (20, "conc-escape"),  # reshape view stored on self
        (23, "conc-escape"),  # Workspace.buf reservation stored on self
        (28, "conc-escape"),  # lambda over row passed to executor.submit
        (37, "conc-escape"),  # nested def over row passed to threading.Thread
    ]


def test_hotpath_checker_flags_decorated_function(result):
    assert findings_for(result, "nn/bad_hot.py") == [
        (10, "hot-alloc"),  # np.zeros
        (11, "hot-alloc"),  # np.matmul without out=
        (13, "hot-alloc"),  # .copy()
    ]


def test_hotpath_checker_honors_config_pins(result):
    # witnessfix/nn/infer.py's _ConvStage.run has no decorator; the
    # re-rooted config pin alone makes it hot.
    assert findings_for(result, "nn/infer.py") == [(8, "hot-alloc")]


def test_lifecycle_checker_flags_freeze_misuse(result):
    assert findings_for(result, "core/bad_frozen.py") == [
        (11, "frozen-save"),          # pickle.dumps(net) where net = freeze(...)
        (15, "frozen-save"),          # pickle.dumps(freeze(model))
        (22, "frozen-save"),          # serializer inside an is_frozen class
        (26, "frozen-config-write"),  # config.threshold = ...
        (30, "frozen-config-write"),  # object.__setattr__ bypass
    ]


def test_every_rule_has_fixture_coverage(result):
    fired = {f.rule for f in result.findings}
    fired.update(f.rule for f, _ in result.suppressed)
    assert fired == {rule.id for rule in all_rules()}


def test_known_good_twins_stay_silent(result):
    flagged_contexts = {f.context for f in result.findings}
    for clean in (
        "clean_zeros",
        "clean_asarray",
        "seeded_factory_ok",
        "sorted_ok",
        "Registry.snapshot",
        "Lockless.bump",
        "workspace_forward",
        "cold_helper",
        "persist_training_model_ok",
        "Matcher.sequential_ok",
        "Matcher.closure_ok",
        "Matcher.closure_ok.later",
        "MetricsRegistry.histogram",
        "Transport.local_use_ok",
        "Transport.copy_ok",
        "Transport.own_pool_ok",
    ):
        assert clean not in flagged_contexts


def test_pragma_suppresses_exactly_one_finding(result):
    reported = findings_for(result, "vision/pragma_case.py")
    # Three identical violations; the trailing pragma (line 5) and the
    # standalone pragma above line 9 each silence exactly their own line.
    assert reported == [(6, "dtype-missing")]
    suppressed = sorted(
        (f.line, f.rule)
        for f, _ in result.suppressed
        if f.path.endswith("pragma_case.py")
    )
    assert suppressed == [(5, "dtype-missing"), (9, "dtype-missing")]
    for _f, pragma in result.suppressed:
        assert pragma.used


def test_rule_catalog_is_documented():
    for rule in all_rules():
        assert rule.summary
        assert rule.incident, f"{rule.id} has no incident lineage"
        assert rule.hint, f"{rule.id} has no remediation hint"


def test_only_filter_restricts_rules():
    config = AnalysisConfig().scoped_to("witnessfix")
    res = run_analysis(
        [str(FIXTURES)],
        config=config,
        only=["lock-order", "conc-escape"],
    )
    fired = {f.rule for f in res.findings}
    assert fired == {"lock-order", "conc-escape"}
    # The lock checker ran (it owns lock-order) but its other rule's
    # findings were dropped post-check.
    assert not any(f.rule == "lock-guard" for f in res.findings)


def test_only_filter_rejects_unknown_rule():
    config = AnalysisConfig().scoped_to("witnessfix")
    with pytest.raises(ValueError, match="conc-typo"):
        run_analysis(
            [str(FIXTURES)],
            config=config,
            only=["conc-typo"],
        )


def test_paths_restrict_the_scan():
    config = AnalysisConfig().scoped_to("witnessfix")
    res = run_analysis(
        [
            str(FIXTURES / "core" / "bad_lock_order.py"),
            str(FIXTURES / "core" / "__init__.py"),
        ],
        config=config,
    )
    assert res.modules_scanned == 2
    assert {f.rule for f in res.findings} == {"lock-order"}


def test_cli_only_and_paths_flags():
    import os
    import subprocess
    import sys

    repo_root = FIXTURES.parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src")
    base = [sys.executable, "-m", "repro.analysis"]
    src_tree = str(repo_root / "src" / "repro")

    ok = subprocess.run(
        base + ["--only", "lock-order,conc-escape", "--paths", src_tree],
        env=env,
        capture_output=True,
        text=True,
    )
    assert ok.returncode == 0, ok.stdout + ok.stderr

    typo = subprocess.run(
        base + ["--only", "no-such-rule", src_tree],
        env=env,
        capture_output=True,
        text=True,
    )
    assert typo.returncode == 2
    assert "no-such-rule" in typo.stderr
