"""The orchestration layer: resolve once, run every checker, suppress.

:func:`run_analysis` is the one entry point tests and the CLI share.
Order of operations:

1. resolve the target tree (:class:`~repro.analysis.resolve.Project`);
2. run each checker over each module *in its configured scope*;
3. drop findings covered by an ``allow[rule]`` pragma on their line
   (each pragma records whether it was used, so stale pragmas are
   reportable).  Pragmas are the one exception mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.core import AnalysisConfig, in_scope
from repro.analysis.resolve import Project


def _scope_for(checker, config: AnalysisConfig) -> tuple:
    return {
        "dtype": config.dtype_scope,
        "determinism": config.determinism_scope,
        "locks": config.lock_scope,
        "escape": config.escape_scope,
        "hotpath": config.hotpath_scope,
        "lifecycle": config.lifecycle_scope,
    }.get(checker.name, ("repro",))


@dataclass
class AnalysisResult:
    """Everything one run produced, pre-split for reporting."""

    findings: list  # non-suppressed (the failures)
    suppressed: list  # (finding, pragma) pairs silenced inline
    modules_scanned: int = 0
    project: object = None

    @property
    def clean(self) -> bool:
        return not self.findings


def run_analysis(
    paths,
    config: AnalysisConfig | None = None,
    checkers=None,
    only=None,
) -> AnalysisResult:
    """Run the full suite over ``paths`` (directories or files).

    ``only`` restricts the run to an iterable of rule ids: checkers
    owning none of them are skipped entirely (cheap pre-commit runs),
    and a multi-rule checker's other findings are dropped post-check.
    Unknown rule ids raise ``ValueError`` so a typo fails loud.
    """
    config = config or AnalysisConfig()
    project = Project.from_paths(paths)
    selected = list(checkers or ALL_CHECKERS)
    only_rules = set(only) if only else None
    if only_rules is not None:
        known = {rid for cls in selected for rid in (r.id for r in cls.rules)}
        unknown = only_rules - known
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        selected = [
            cls for cls in selected if only_rules & {r.id for r in cls.rules}
        ]
    checker_instances = [cls(config) for cls in selected]

    raw = []
    for module in project.modules:
        # The analyzer does not lint itself: its fixtures-of-bad-code in
        # docstrings and its rule tables would be a hall of mirrors.
        if module.module == "repro.analysis" or module.module.startswith("repro.analysis."):
            continue
        for checker in checker_instances:
            if not in_scope(module.module, _scope_for(checker, config)):
                continue
            found = checker.check(module, project)
            if only_rules is not None:
                found = [f for f in found if f.rule in only_rules]
            raw.extend(found)

    # Inline pragma suppression: a pragma silences findings of its rules
    # on its line (and records that it fired).
    pragma_index = {}
    for module in project.modules:
        for pragma in module.pragmas:
            for rule in pragma.rules:
                pragma_index[(module.path, pragma.line, rule)] = pragma

    findings, suppressed = [], []
    for finding in sorted(raw, key=lambda f: f.sort_key()):
        pragma = pragma_index.get((finding.path, finding.line, finding.rule))
        if pragma is not None:
            pragma.used = True
            suppressed.append((finding, pragma))
        else:
            findings.append(finding)

    return AnalysisResult(
        findings=findings,
        suppressed=suppressed,
        modules_scanned=len(project.modules),
        project=project,
    )
