"""The pluggable checker suite (one module per rule family)."""

from __future__ import annotations

from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.dtype import DtypeChecker
from repro.analysis.checkers.escape import EscapeChecker
from repro.analysis.checkers.hotpath import HotPathChecker
from repro.analysis.checkers.lifecycle import LifecycleChecker
from repro.analysis.checkers.locks import LockChecker

#: Every shipped checker, in report order.
ALL_CHECKERS = (
    DtypeChecker,
    DeterminismChecker,
    LockChecker,
    EscapeChecker,
    HotPathChecker,
    LifecycleChecker,
)


def all_rules():
    """Every rule of every shipped checker (the ``--list-rules`` catalog)."""
    rules = []
    for checker_cls in ALL_CHECKERS:
        rules.extend(checker_cls.rules)
    return rules
