"""``repro-lint`` command line interface.

Exit codes: 0 clean, 1 findings reported, 2 usage error.  Findings print
one per line; ``--list-rules`` prints the contract table straight from the
rule list.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.lint.analyzer import run_lint
from repro.lint.registry import all_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based determinism-contract analyzer for the repro tree",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint (e.g. src/repro)"
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table (id, invariant, rationale) and exit",
    )
    return parser


def _print_rules() -> None:
    for rule in all_rules():
        print(f"{rule.id}  {rule.name}")
        print(f"      invariant: {rule.invariant}")
        print(f"      rationale: {rule.rationale}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        _print_rules()
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro-lint: error: no paths given", file=sys.stderr)
        return 2
    try:
        findings, files_checked = run_lint(args.paths)
    except (UnicodeDecodeError, OSError) as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"repro-lint: {len(findings)} finding(s) in {files_checked} file(s)")
    else:
        print(f"repro-lint: clean ({files_checked} file(s) checked)")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
