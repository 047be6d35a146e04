"""``repro-lint`` command line interface.

Exit codes: 0 clean, 1 findings reported, 2 usage error.  ``--format
json`` emits a machine-readable report (consumed by the campaign-service
tooling); ``--list-rules`` prints the contract table straight from the
rule list.
"""

from __future__ import annotations

import argparse
import json
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
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="finding output format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all rules)",
    )
    return parser


def _print_rules(fmt: str) -> None:
    rules = all_rules()
    if fmt == "json":
        payload = [
            {
                "id": rule.id,
                "name": rule.name,
                "invariant": rule.invariant,
                "rationale": rule.rationale,
            }
            for rule in rules
        ]
        print(json.dumps(payload, indent=1, sort_keys=True))
        return
    for rule in rules:
        print(f"{rule.id}  {rule.name}")
        print(f"      invariant: {rule.invariant}")
        print(f"      rationale: {rule.rationale}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        _print_rules(args.format)
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro-lint: error: no paths given", file=sys.stderr)
        return 2
    select = None
    if args.select is not None:
        select = [code.strip() for code in args.select.split(",") if code.strip()]
    try:
        findings, files_checked = run_lint(args.paths, select=select)
    except (ValueError, OSError) as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = {
            "files_checked": files_checked,
            "findings": [finding.to_dict() for finding in findings],
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            print(f"repro-lint: {len(findings)} finding(s) in {files_checked} file(s)")
        else:
            print(f"repro-lint: clean ({files_checked} file(s) checked)")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
