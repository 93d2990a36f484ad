"""Command-line front end: ``python -m repro.lint`` / ``amped-lint``.

Exit codes follow the CI contract of :class:`repro.lint.engine.LintResult`:
0 clean, 1 violations, 2 unreadable or unparseable input.  With
``--baseline``, baselined findings do not count against the exit code —
only new ones do.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.lint.baseline import (
    BaselineError,
    filter_new,
    read_baseline,
    write_baseline,
)
from repro.lint.engine import run_lint
from repro.lint.report import render_json, render_rule_listing, render_text


def _split_ids(values: List[str]) -> List[str]:
    """Flatten repeatable, comma-separated ``--select``/``--ignore``."""
    ids: List[str] = []
    for value in values:
        ids.extend(part.strip() for part in value.split(",") if part.strip())
    return ids


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=("Dimensional-consistency and invariant static "
                     "analysis for the AMPeD codebase (per-file rules "
                     "AMP001-AMP006; whole-program rules AMP101-AMP104, "
                     "AMP201, AMP203 and AMP204 "
                     "via --flow; suppress with "
                     "`# amplint: disable=AMP00x`)."))
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to analyze (default: ./src if it "
             "exists, else .)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)")
    parser.add_argument(
        "--select", action="append", default=[], metavar="IDS",
        help="comma-separated rule ids to run exclusively")
    parser.add_argument(
        "--ignore", action="append", default=[], metavar="IDS",
        help="comma-separated rule ids to skip")
    parser.add_argument(
        "--flow", action="store_true",
        help="also run the whole-program dataflow rules (AMP10x "
             "dimension flow, AMP20x concurrency safety)")
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="compare findings against this snapshot; only new "
             "findings are reported and gate the exit code")
    parser.add_argument(
        "--update-baseline", metavar="FILE", default=None,
        help="write the current findings to this snapshot file and "
             "exit 0 (2 if input was unparseable)")
    parser.add_argument(
        "--statistics", action="store_true",
        help="append per-rule violation counts (text format)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rule_listing())
        return 0

    paths = list(args.paths)
    if not paths:
        paths = ["src"] if os.path.isdir("src") else ["."]

    result = run_lint(paths,
                      select=_split_ids(args.select) or None,
                      ignore=_split_ids(args.ignore) or None,
                      flow=args.flow)

    if args.update_baseline:
        write_baseline(args.update_baseline, result.violations)
        print(f"baseline: wrote {len(result.violations)} finding(s) "
              f"to {args.update_baseline}")
        return 2 if result.failures else 0

    if args.baseline:
        try:
            known = read_baseline(args.baseline)
        except BaselineError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        forgiven = len(result.violations)
        result.violations = filter_new(result.violations, known)
        forgiven -= len(result.violations)
        if forgiven:
            print(f"baseline: {forgiven} known finding(s) suppressed "
                  f"by {args.baseline}")

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, statistics=args.statistics))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
