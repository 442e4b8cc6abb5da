"""Finding reports: human text, machine JSON, GitHub annotations.

``--format=text`` is the terminal default (grouped by file, with rule
ids and the offending line); ``--format=json`` is the machine-readable
findings report consumed by tooling; ``--format=github`` emits
``::error``/``::warning`` workflow commands so CI findings surface as
inline PR annotations.
"""

from __future__ import annotations

import json

from repro.analysis.checkers import all_rules


def render_text(result) -> str:
    lines = []
    if result.findings:
        lines.append(f"witness-lint: {len(result.findings)} finding(s)")
        lines.append("")
        current = None
        for f in result.findings:
            if f.path != current:
                current = f.path
                lines.append(f"{f.path}:")
            lines.append(f"  {f.line}:{f.col}  [{f.rule}]  {f.message}  (in {f.context})")
            if f.line_text:
                lines.append(f"      > {f.line_text}")
        lines.append("")
    summary = (
        f"{result.modules_scanned} module(s) scanned, "
        f"{len(result.findings)} finding(s), "
        f"{len(result.suppressed)} pragma-suppressed"
    )
    lines.append(("FAIL  " if result.findings else "OK  ") + summary)
    return "\n".join(lines)


def render_json(result) -> str:
    def finding_json(f):
        return {
            "rule": f.rule,
            "path": f.path,
            "line": f.line,
            "col": f.col,
            "message": f.message,
            "context": f.context,
            "line_text": f.line_text,
        }

    payload = {
        "clean": result.clean,
        "modules_scanned": result.modules_scanned,
        "findings": [finding_json(f) for f in result.findings],
        "suppressed": [
            {**finding_json(f), "justification": pragma.justification}
            for f, pragma in result.suppressed
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _escape_data(value: str) -> str:
    """Escape a workflow-command message per the actions spec."""
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _escape_prop(value: str) -> str:
    """Escape a workflow-command property (also : and ,)."""
    return _escape_data(value).replace(":", "%3A").replace(",", "%2C")


def render_github(result) -> str:
    lines = []
    for f in result.findings:
        lines.append(
            f"::error file={_escape_prop(f.path)},line={f.line},col={f.col + 1},"
            f"title={_escape_prop(f'witness-lint {f.rule}')}::{_escape_data(f.message)}"
        )
    lines.append(
        f"witness-lint: {len(result.findings)} findings, "
        f"{len(result.suppressed)} suppressed over "
        f"{result.modules_scanned} modules"
    )
    return "\n".join(lines)


def render_rules() -> str:
    """The ``--list-rules`` catalog with incident lineage."""
    lines = ["witness-lint rule catalog", ""]
    for rule in all_rules():
        lines.append(f"{rule.id}")
        lines.append(f"    {rule.summary}")
        lines.append(f"    incident: {rule.incident}")
        lines.append(f"    fix: {rule.hint}")
        lines.append("")
    return "\n".join(lines).rstrip()


FORMATS = {
    "text": render_text,
    "json": render_json,
    "github": render_github,
}
