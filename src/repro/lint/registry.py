"""Rule base class and the rule list.

Every rule is a subclass of :class:`Rule` listed in
:data:`repro.lint.rules.RULES`.  A rule declares its id (``RLxx``), a
one-line invariant, and a rationale tying the invariant back to
reproducibility; ``repro-lint --list-rules`` prints
exactly these fields, so they double as the user-facing contract table.

A rule is one per-file pass: ``check_module(ctx)`` sees one
:class:`ModuleContext` and returns its findings.
"""

from __future__ import annotations

from typing import List

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding

class Rule:
    """Base class for determinism-contract rules."""

    id = "RL00"
    name = "unnamed"
    invariant = ""
    rationale = ""

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        return []

    def finding(self, ctx: ModuleContext, line: int, col: int, message: str) -> Finding:
        return Finding(rule=self.id, path=ctx.path, line=line, col=col, message=message)


def all_rules() -> List[Rule]:
    """Every rule, in id order."""
    # Imported on use: the rule modules import this one for :class:`Rule`.
    from repro.lint.rules import RULES

    return sorted(RULES, key=lambda rule: rule.id)
