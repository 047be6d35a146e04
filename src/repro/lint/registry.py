"""Rule registry.

Every rule is a subclass of :class:`Rule` decorated with ``@register``.  A
rule declares its id (``RLxx``), a one-line invariant, and a rationale tying
the invariant back to reproducibility; ``repro-lint --list-rules`` prints
exactly these fields, so they double as the user-facing contract table.

A rule is one per-file pass: ``check_module(ctx)`` sees one
:class:`ModuleContext` and returns its findings.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding

_REGISTRY: Dict[str, "Rule"] = {}


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


def register(cls: Type[Rule]) -> Type[Rule]:
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Registered rules in id order."""
    import repro.lint.rules  # noqa: F401  (populates the registry)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]
