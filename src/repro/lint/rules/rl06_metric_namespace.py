"""RL06 -- metric-namespace collisions.

Two producers writing the same metric name clobber each other in merged
result records; the runtime ``MetricSet`` duplicate detector catches this
only when both code paths actually execute in one run.  This rule harvests
metric-name string literals statically:

* **dotted namespace** -- literals in ``<metrics>.set("a.b.c", ...)``
  calls; a literal emitted from two different modules is a collision
  (modules that deliberately *reconstruct* producer names, like the
  congestion campaign job, are exempt via config).
* **protocol flat namespace** -- literals in ``add_metric(info, "name",
  ...)`` calls; duplicates within one class are collisions, and a
  ``*Stats.as_dict`` dict-literal key that matches an ``add_metric``
  literal in the same package collides too (``ftprotocols/base.py``
  imports every as_dict key into the same info dict).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence, Tuple

from repro.lint.config import METRIC_RECONSTRUCTION_MODULES
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register
from repro.lint.rules.common import string_value


def _dotted_set_literals(ctx: ModuleContext) -> List[Tuple[str, int, int]]:
    """(literal, line, col) for ``X.set("a.b", ...)`` metric emissions."""
    out = []
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "set"
            and node.args
        ):
            continue
        literal = string_value(node.args[0])
        if literal is not None and "." in literal:
            out.append((literal, node.lineno, node.col_offset))
    return out


def _add_metric_literals(ctx: ModuleContext) -> List[Tuple[str, str, int, int]]:
    """(class_name, literal, line, col) for ``add_metric(info, "x", ...)``."""
    out = []
    class_stack: Dict[int, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            for sub in ast.walk(node):
                class_stack.setdefault(id(sub), node.name)
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "add_metric"
            and len(node.args) >= 2
        ):
            continue
        literal = string_value(node.args[1])
        if literal is not None:
            cls = class_stack.get(id(node), "<module>")
            out.append((cls, literal, node.lineno, node.col_offset))
    return out


def _stats_as_dict_keys(ctx: ModuleContext) -> List[Tuple[str, int, int]]:
    """Dict-literal keys returned by ``*Stats.as_dict`` methods."""
    out = []
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.ClassDef) and node.name.endswith("Stats")):
            continue
        for stmt in node.body:
            if not (isinstance(stmt, ast.FunctionDef) and stmt.name == "as_dict"):
                continue
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Dict):
                    for key in sub.keys:
                        literal = string_value(key)
                        if literal is not None:
                            out.append((literal, sub.lineno, sub.col_offset))
    return out


@register
class MetricNamespaceRule(Rule):
    id = "RL06"
    name = "metric-namespace-collisions"
    invariant = (
        "every metric name literal has exactly one producer: no cross-module "
        "MetricSet.set duplicates, no add_metric/as_dict key clashes"
    )
    rationale = (
        "two producers of one name clobber each other in merged records; "
        "the runtime detector only fires when both paths execute in one run"
    )

    def check_project(self, ctxs: Sequence[ModuleContext]) -> List[Finding]:
        findings: List[Finding] = []

        # Pass 1: cross-module dotted-name collisions.
        producers: Dict[str, List[Tuple[ModuleContext, int, int]]] = {}
        for ctx in ctxs:
            if ctx.module in METRIC_RECONSTRUCTION_MODULES:
                continue
            for literal, line, col in _dotted_set_literals(ctx):
                producers.setdefault(literal, []).append((ctx, line, col))
        for literal in sorted(producers):
            sites = producers[literal]
            modules = {ctx.module for ctx, _, _ in sites}
            if len(modules) < 2:
                continue
            where = ", ".join(sorted(modules))
            for ctx, line, col in sites:
                findings.append(
                    self.finding(
                        ctx,
                        line,
                        col,
                        f"metric '{literal}' is emitted from multiple modules "
                        f"({where}); merged records would clobber each other",
                    )
                )

        # Pass 2: protocol flat namespace (add_metric + imported as_dict keys).
        for ctx in ctxs:
            per_class: Dict[str, Dict[str, Tuple[int, int]]] = {}
            for cls, literal, line, col in _add_metric_literals(ctx):
                seen = per_class.setdefault(cls, {})
                if literal in seen:
                    findings.append(
                        self.finding(
                            ctx,
                            line,
                            col,
                            f"duplicate add_metric name '{literal}' in class "
                            f"{cls} (first at line {seen[literal][0]})",
                        )
                    )
                else:
                    seen[literal] = (line, col)

        package_add_metric: Dict[str, Dict[str, str]] = {}
        for ctx in ctxs:
            package = ctx.module.rsplit("/", 1)[0]
            names = package_add_metric.setdefault(package, {})
            for _cls, literal, _line, _col in _add_metric_literals(ctx):
                names.setdefault(literal, ctx.module)
        for ctx in ctxs:
            package = ctx.module.rsplit("/", 1)[0]
            names = package_add_metric.get(package, {})
            for literal, line, col in _stats_as_dict_keys(ctx):
                if literal in names:
                    findings.append(
                        self.finding(
                            ctx,
                            line,
                            col,
                            f"stats key '{literal}' collides with an "
                            f"add_metric name in {names[literal]}; as_dict "
                            "keys are imported into the same protocol info "
                            "dict",
                        )
                    )
        return findings
