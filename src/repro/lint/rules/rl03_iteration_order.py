"""RL03 -- iteration-order hazards.

Python ``set`` iteration order depends on insertion history and hash
randomisation of the values' types; iterating a set into anything ordered
(a list, a loop that accumulates floats, a trace record) makes the output
sensitive to that order.  The rule flags iteration over set-typed
expressions unless the consumer is order-insensitive; the fix is a
``sorted(...)`` wrapper, which is behaviour-neutral everywhere order did
not already matter.  ``vars()/globals()/locals()`` views are flagged for
the same reason.  (Plain dict views are insertion-ordered and exempt.)
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Set

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule

_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)


def _is_set_expr(node: ast.AST, known: Set[str]) -> bool:
    """Whether ``node`` is set-typed, given the scope's set-assigned names."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in known
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
            return True
        if isinstance(fn, ast.Attribute) and fn.attr in _SET_METHODS:
            return _is_set_expr(fn.value, known)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, known) or _is_set_expr(node.right, known)
    return False


def _known_sets_lookup(ctx: ModuleContext) -> Callable[[ast.AST], Set[str]]:
    """Map any node to the names its enclosing scope assigned set-typed values.

    Runs the assignment pre-pass once, grouping names by the lexical scope
    (module or function) the assignment lives in.
    """
    scope_known: Dict[int, Set[str]] = {id(ctx.tree): set()}
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scope_known[id(node)] = set()

    def known_for(node: ast.AST) -> Set[str]:
        current = ctx.parent(node)
        while current is not None and id(current) not in scope_known:
            current = ctx.parent(current)
        return scope_known[id(current) if current is not None else id(ctx.tree)]

    assigns = [
        n
        for n in ast.walk(ctx.tree)
        if isinstance(n, (ast.Assign, ast.AnnAssign)) and n.value is not None
    ]
    for assign in sorted(assigns, key=lambda n: n.lineno):
        known = known_for(assign)
        if not _is_set_expr(assign.value, known):
            continue
        targets = assign.targets if isinstance(assign, ast.Assign) else [assign.target]
        for target in targets:
            if isinstance(target, ast.Name):
                known.add(target.id)
    return known_for


#: Consumers for which element order cannot affect the result.  ``sum`` is
#: deliberately absent: float addition is not associative, so summing a set
#: in hash order is exactly the bug this rule exists to catch.
_ORDER_FREE_CONSUMERS = frozenset(
    {"sorted", "min", "max", "any", "all", "len", "set", "frozenset", "bool"}
)

#: Calls whose result is an ordered sequence fed by iteration order.
_ORDERED_CONSUMERS = frozenset({"list", "tuple", "iter", "enumerate", "sum"})


def _is_dynamic_namespace_view(node: ast.AST) -> bool:
    """``vars(x).values()`` / ``globals().items()`` style expressions."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr not in ("values", "keys", "items"):
        return False
    inner = node.func.value
    return (
        isinstance(inner, ast.Call)
        and isinstance(inner.func, ast.Name)
        and inner.func.id in ("vars", "globals", "locals")
    )


class IterationOrderRule(Rule):
    id = "RL03"
    name = "iteration-order-hazards"
    invariant = (
        "no iteration over set-typed expressions (or vars()/globals() views) "
        "into ordered consumers without sorted()"
    )
    rationale = (
        "set order follows insertion history and value hashing, so an "
        "unsorted traversal leaks run-dependent order into records, traces "
        "and float accumulations; sorted() restores a canonical order"
    )

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        known_for = _known_sets_lookup(ctx)

        def flag(node: ast.AST, what: str) -> None:
            findings.append(
                self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"{what}; wrap in sorted() to pin a canonical order",
                )
            )

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                known = known_for(node)
                if _is_set_expr(node.iter, known):
                    flag(node.iter, "for-loop iterates a set-typed expression")
                elif _is_dynamic_namespace_view(node.iter):
                    flag(node.iter, "for-loop iterates a dynamic-namespace view")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                # ``sorted(x for x in some_set)`` is the canonical fix, not a
                # violation: skip comprehensions fed to order-free consumers.
                parent = ctx.parent(node)
                if (
                    isinstance(parent, ast.Call)
                    and isinstance(parent.func, ast.Name)
                    and parent.func.id in _ORDER_FREE_CONSUMERS
                ):
                    continue
                known = known_for(node)
                for gen in node.generators:
                    if _is_set_expr(gen.iter, known):
                        flag(gen.iter, "comprehension iterates a set-typed expression")
                    elif _is_dynamic_namespace_view(gen.iter):
                        flag(gen.iter, "comprehension iterates a dynamic-namespace view")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _ORDERED_CONSUMERS:
                    known = known_for(node)
                    for arg in node.args:
                        if _is_set_expr(arg, known):
                            flag(
                                arg,
                                f"{node.func.id}() materialises a set-typed "
                                "expression in hash order",
                            )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
            ):
                known = known_for(node)
                for arg in node.args:
                    if _is_set_expr(arg, known):
                        flag(arg, "str.join() consumes a set-typed expression")
        return findings
