"""witness-lint self-check: the shipped tree runs clean (tier-1 gate).

Three invariants the repo commits to:

* ``python -m repro.analysis src/repro`` exits 0 — no findings; a
  justified ``allow`` pragma is the one way to make an exception;
* every inline ``allow`` pragma carries a justification and actually
  fires — a pragma whose violation was fixed must be deleted with it;
* the declared lock ledger is consistent: no pair appears in both
  orders, and every node it names is a lock in the tree.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.core import DECLARED_LOCK_ORDER
from repro.analysis.runner import run_analysis

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_TREE = REPO_ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def result():
    return run_analysis([str(SRC_TREE)])


def test_tree_is_clean(result):
    lines = [f"{f.location()} [{f.rule}] {f.message}" for f in result.findings]
    assert result.clean, "witness-lint findings:\n" + "\n".join(lines)


def test_lock_ledger_has_no_reversed_pair():
    pairs = set(DECLARED_LOCK_ORDER)
    assert len(pairs) == len(DECLARED_LOCK_ORDER), "duplicate ledger entries"
    contradictions = sorted((a, b) for a, b in pairs if a == b or (b, a) in pairs)
    assert not contradictions, f"ledger pairs declared both ways: {contradictions}"


def test_lock_ledger_names_live_locks(result):
    live = set()
    for module in result.project.modules:
        live.update(f"{module.module}.{name}" for name in module.lock_globals)
        for qual, info in module.classes.items():
            live.update(f"{module.module}.{qual}.{attr}" for attr in info.lock_attrs)
    named = {node for pair in DECLARED_LOCK_ORDER for node in pair}
    assert named <= live, f"ledger names no such lock: {sorted(named - live)}"


def _linted_modules(result):
    # Mirror the runner's self-exclusion: the analyzer's own sources show
    # pragma *examples* in docstrings/comments that never fire.
    return [
        module
        for module in result.project.modules
        if module.module != "repro.analysis"
        and not module.module.startswith("repro.analysis.")
    ]


def test_every_pragma_fires(result):
    used = {id(pragma) for _f, pragma in result.suppressed}
    stale = [
        (module.path, pragma.line, pragma.rules)
        for module in _linted_modules(result)
        for pragma in module.pragmas
        if id(pragma) not in used
    ]
    assert not stale, f"stale allow[] pragmas (violation gone, pragma left): {stale}"


def test_every_pragma_is_justified(result):
    bare = [
        (module.path, pragma.line)
        for module in _linted_modules(result)
        for pragma in module.pragmas
        if not pragma.justification
    ]
    assert not bare, f"allow[] pragmas without a `-- why` justification: {bare}"


def test_cli_exits_zero():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(SRC_TREE)],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
