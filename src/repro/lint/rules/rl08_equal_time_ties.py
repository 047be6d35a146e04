"""RL08 -- equal-timestamp scheduling without a deterministic tie-break.

Scheduling one engine event *per element* of a collection with a
loop-invariant delay puts every event at the same admissible timestamp;
their relative dispatch order is then nothing but the insertion tie-break,
which the model does not constrain (and which the schedule explorer
deliberately perturbs).  When the per-element callbacks feed an ordered
consumer -- a FIFO channel, a log, a trace -- the run's outcome silently
depends on that artefact.  The message-logging replay bug is the canonical
instance: one replay event per log entry, all at ``failure + request_delay``,
let a reordered dispatch break per-channel FIFO.

The fix is structural, not cosmetic: schedule *one* event that walks the
collection in a deterministic order (pass the whole batch to the callback),
or derive genuinely distinct times per element.

Two additional hazards are flagged: a set-typed collection fanned out into
the scheduler (hash order becomes insertion order becomes dispatch order),
and ``schedule_at`` with a loop-invariant absolute time.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register
from repro.lint.rules.common import set_checker_for

_SCHEDULE_METHODS = frozenset({"schedule", "schedule_at", "post"})


def _is_engine_schedule(node: ast.Call) -> bool:
    """``<...>.engine.schedule(...)`` / ``schedule_at(...)`` / ``post(...)`` calls.

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


def _uses_names(expr: Optional[ast.AST], loop_names: Set[str]) -> bool:
    if expr is None:
        return False
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id in loop_names:
            return True
    return False


@register
class EqualTimeTieRule(Rule):
    id = "RL08"
    name = "equal-time-tie-break"
    invariant = (
        "no per-element engine.schedule()/schedule_at()/post() fan-out at a "
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
        checker_for = set_checker_for(ctx)

        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, ast.For):
                continue
            loop_names = _loop_target_names(loop.target)
            iter_is_set = checker_for(loop).is_set_expr(loop.iter)
            for node in ast.walk(loop):
                if not (isinstance(node, ast.Call) and _is_engine_schedule(node)):
                    continue
                if not node.args:
                    continue
                # Nested loops: attribute the call to the *innermost* loop so
                # the invariance test uses the right loop variable.
                inner = ctx.parent(node)
                owner: Optional[ast.For] = None
                while inner is not None:
                    if isinstance(inner, ast.For):
                        owner = inner
                        break
                    inner = ctx.parent(inner)
                if owner is not loop:
                    continue
                per_element = any(
                    _uses_names(arg, loop_names) for arg in list(node.args)[1:]
                ) or any(_uses_names(kw.value, loop_names) for kw in node.keywords)
                if not per_element:
                    continue
                if iter_is_set:
                    findings.append(
                        self.finding(
                            ctx,
                            node.lineno,
                            node.col_offset,
                            "per-element event fan-out over a set-typed "
                            "expression: hash order becomes dispatch order; "
                            "iterate sorted(...) or schedule one batched event",
                        )
                    )
                    continue
                if _loop_invariant_time(node.args[0], loop_names):
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
