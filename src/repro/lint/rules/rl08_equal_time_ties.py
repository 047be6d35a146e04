"""RL08 -- equal-timestamp scheduling without a deterministic tie-break.

Scheduling one engine event *per element* of a collection with a
loop-invariant delay puts every event at the same admissible timestamp;
their relative dispatch order is then nothing but the insertion tie-break,
which the model does not constrain.  When the per-element callbacks feed
an ordered consumer -- a FIFO channel, a log, a trace -- the run's outcome
silently depends on that artefact.  The message-logging replay bug is the canonical
instance: one replay event per log entry, all at ``failure + request_delay``,
let a reordered dispatch break per-channel FIFO.

The fix is structural, not cosmetic: schedule *one* event that walks the
collection in a deterministic order (pass the whole batch to the callback),
or derive genuinely distinct times per element.

``schedule_at`` with a loop-invariant absolute time is the same hazard and
is flagged too.  (Fanning a *set* out into the scheduler is RL03's finding:
it flags the ``for`` itself.)
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule

_SCHEDULE_METHODS = frozenset({"schedule", "schedule_at"})


def _is_engine_schedule(node: ast.Call) -> bool:
    """``<...>.engine.schedule(...)`` / ``schedule_at(...)`` calls.

    The method name alone is too common (campaign scheduling, cron-like
    helpers), so the attribute chain must mention ``engine``.
    """
    fn = node.func
    if not (isinstance(fn, ast.Attribute) and fn.attr in _SCHEDULE_METHODS):
        return False
    current: ast.AST = fn.value
    while isinstance(current, ast.Attribute):
        if current.attr == "engine":
            return True
        current = current.value
    return isinstance(current, ast.Name) and current.id == "engine"


def _loop_target_names(target: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _loop_invariant_time(expr: ast.AST, loop_names: Set[str]) -> bool:
    """Whether the delay/time expression is the same for every iteration.

    Conservative: only pure shapes (constants, names, attribute chains,
    arithmetic thereof) count; any call, subscript or comprehension inside
    the expression may vary per iteration and exempts the site.
    """
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id in loop_names:
            return False
        if isinstance(node, (ast.Call, ast.Subscript, ast.GeneratorExp, ast.ListComp)):
            return False
    return True


def _uses_names(expr: ast.AST, loop_names: Set[str]) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id in loop_names for node in ast.walk(expr)
    )


class EqualTimeTieRule(Rule):
    id = "RL08"
    name = "equal-time-tie-break"
    invariant = (
        "no per-element engine.schedule()/schedule_at() fan-out at a "
        "loop-invariant time: same-timestamp events dispatch in insertion "
        "order only, which the model leaves unconstrained"
    )
    rationale = (
        "N events at one timestamp have no defined relative order; batching "
        "the loop into a single event (or staggering the times) pins the "
        "order the protocol actually relies on, instead of leaving it to a "
        "tie-break a schedule policy is free to permute"
    )

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and _is_engine_schedule(node) and node.args):
                continue
            # The *innermost* enclosing loop owns the call, so the invariance
            # test uses the right loop variable under nesting.
            loop = ctx.parent(node)
            while loop is not None and not isinstance(loop, ast.For):
                loop = ctx.parent(loop)
            if loop is None:
                continue
            loop_names = _loop_target_names(loop.target)
            per_element = any(
                _uses_names(arg, loop_names)
                for arg in [*node.args[1:], *(kw.value for kw in node.keywords)]
            )
            if per_element and _loop_invariant_time(node.args[0], loop_names):
                method = node.func.attr  # type: ignore[union-attr]
                findings.append(
                    self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"engine.{method}() fan-out at a loop-invariant "
                        "time: the elements' events tie and dispatch in "
                        "insertion order only; schedule one batched event "
                        "for the whole collection or stagger the times",
                    )
                )
        return findings
