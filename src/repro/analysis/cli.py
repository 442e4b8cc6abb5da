"""``python -m repro.analysis`` — the witness-lint command line.

Exit codes: 0 clean (pragma-suppressed findings don't fail the run),
1 findings, 2 usage error.  With no path arguments the scanned tree
defaults to the installed ``repro`` package sources (so CI and local
runs agree without spelling the path).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.core import AnalysisConfig
from repro.analysis.report import FORMATS, render_rules
from repro.analysis.runner import run_analysis


def default_target() -> str:
    """The ``repro`` package source tree this module was imported from."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "witness-lint: AST invariant checks for dtype, determinism, "
            "lock guard and order, hot-path allocation, workspace-buffer "
            "escape and frozen-lifecycle discipline"
        ),
    )
    parser.add_argument(
        "paths_pos",
        nargs="*",
        metavar="path",
        help="files or directories to scan (default: the repro package sources)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(FORMATS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (with incident lineage) and exit",
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="RULE[,RULE...]",
        help="run only these rule ids (comma-separated), e.g. "
        "--only lock-order,conc-escape",
    )
    parser.add_argument(
        "--paths",
        nargs="+",
        default=None,
        metavar="FILE",
        help="additional files/directories to scan (alongside positional "
        "paths; lets pre-commit pass just the changed files)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rules())
        return 0

    paths = list(args.paths_pos) + list(args.paths or [])
    if not paths:
        paths = [default_target()]
    for path in paths:
        if not os.path.exists(path):
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2

    only = None
    if args.only:
        only = [r.strip() for r in args.only.split(",") if r.strip()]
        if not only:
            print("error: --only given but no rule ids parsed", file=sys.stderr)
            return 2

    try:
        result = run_analysis(paths, config=AnalysisConfig(), only=only)
    except ValueError as exc:  # unknown --only rule id
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(FORMATS[args.format](result))
    return 0 if result.clean else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
