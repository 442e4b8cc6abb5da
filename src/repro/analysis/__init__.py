"""witness-lint: AST-based invariant checking for the witness codebase.

The witness's correctness story rests on invariants Python's type system
cannot express: float32 end-to-end on the inference path, bit-identical
engine-independent session fingerprints, lock-guarded shared state with
a declared lock order, confined workspace buffers, and allocation-free
frozen forwards.  Each was historically enforced by a
human reading diffs (or by a 2460-frame soak finding the regression
after the fact).  This package enforces them mechanically:

* :mod:`repro.analysis.resolve` parses a source tree once into a shared
  module/symbol index (imports, classes, lock ownership, decorators,
  suppression pragmas);
* :mod:`repro.analysis.checkers` runs pluggable rule sets over that
  index (dtype discipline, determinism, lock guard and order,
  workspace-buffer escape, hot-path allocation, frozen lifecycle);
* ``# witness-lint: allow[rule] -- why`` pragmas are the one way to make
  an exception, one line at a time;
* ``python -m repro.analysis`` is the CLI (text/JSON/GitHub output).

This module is imported by production code (for :func:`hot_path`), so it
stays dependency-free and cheap: the analyzer machinery loads lazily.
"""

from __future__ import annotations

__all__ = ["hot_path", "run_analysis", "Finding", "AnalysisConfig"]


def hot_path(fn):
    """Mark ``fn`` as an allocation-free hot path (a no-op at runtime).

    witness-lint's ``hot-alloc`` rule flags array-allocating calls inside
    any function carrying this decorator: the frozen engine's grow-only
    workspaces exist so that steady-state forwards allocate nothing, and
    this marker is how new code opts into that guarantee being *checked*
    rather than hoped for.
    """
    fn.__witness_hot_path__ = True
    return fn


def __getattr__(name):
    # Lazy: importing repro.analysis from hot production modules must not
    # drag the whole analyzer (ast walking, checkers) into their import.
    if name == "run_analysis":
        from repro.analysis.runner import run_analysis

        return run_analysis
    if name == "Finding":
        from repro.analysis.core import Finding

        return Finding
    if name == "AnalysisConfig":
        from repro.analysis.core import AnalysisConfig

        return AnalysisConfig
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
