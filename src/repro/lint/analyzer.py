"""File walker and rule runner.

``run_lint(paths)`` builds a :class:`ModuleContext` per Python file and
runs every rule over it; a file that does not parse is one ``RL00``
finding.  Findings come back sorted by ``(path, line, col, rule)`` so
output is stable.
"""

from __future__ import annotations

import os
from typing import List, Sequence, Tuple

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import all_rules


def iter_python_files(paths: Sequence[str]) -> List[str]:
    out: List[str] = []
    for path in paths:
        if not os.path.exists(path):
            # A gate must not pass on a mistyped path.
            raise FileNotFoundError(f"{path}: no such file or directory")
        if os.path.isfile(path):
            out.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    out.append(os.path.join(root, name))
    return sorted(dict.fromkeys(out))


def lint_contexts(ctxs: Sequence[ModuleContext]) -> List[Finding]:
    rules = all_rules()
    findings: List[Finding] = []
    for ctx in ctxs:
        for rule in rules:
            findings.extend(rule.check_module(ctx))
    return sorted(findings, key=Finding.sort_key)


def run_lint(paths: Sequence[str]) -> Tuple[List[Finding], int]:
    """Lint files/directories; returns (findings, files_checked)."""
    ctxs = []
    errors: List[Finding] = []
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        try:
            ctxs.append(ModuleContext(path, source))
        except SyntaxError as exc:
            errors.append(
                Finding(
                    rule="RL00",
                    path=path,
                    line=exc.lineno or 0,
                    col=exc.offset or 0,
                    message=f"file does not parse: {exc.msg}",
                )
            )
    findings = lint_contexts(ctxs)
    findings.extend(errors)
    return sorted(findings, key=Finding.sort_key), len(ctxs)


def lint_source(source: str, module: str, path: str = "<fixture>") -> List[Finding]:
    """Lint one in-memory snippet as if it lived at ``module`` (test helper)."""
    ctx = ModuleContext(path, source, module=module)
    return lint_contexts([ctx])
