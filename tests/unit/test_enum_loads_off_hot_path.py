"""No Enum member loads inside the functions of the per-message path.

On CPython 3.9 to 3.11, ``enum.EnumType`` (``EnumMeta``) defines
``__getattr__``, so every ``RankState.FAILED`` or ``SendAction.DEFER`` written
inside a function costs 130-210 ns, against 25-60 ns for a module global
(3.12 dropped the hook: about 50 ns).  The cost runs in a C slot with no
Python frame, so neither cProfile nor the call budgets of
``tests/integration/test_call_budget.py`` see it, yet the rank driver,
matching, request completion and send path used to make seven or eight such
loads per message.  The modules of that path read module-level aliases
(``_FAILED = RankState.FAILED``) instead; this test keeps it that way by
parsing them: any function body (methods, nested functions and lambdas
included) that loads an attribute of one of the Enum classes fails it.
Module-level statements, where the aliases are made, are allowed.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import pytest

SIMULATOR = Path(__file__).resolve().parents[2] / "src" / "repro" / "simulator"

#: the Enum classes whose members the per-message path reads.
ENUMS = frozenset({"RankState", "RequestState", "SendAction", "PiggybackPolicy"})

#: modules every function of which is checked.
WHOLE_MODULES = ("process.py", "requests.py", "simulation.py", "channel.py", "engine.py")

#: ``(module, class, method)``: per-event functions of modules checked only there.
FUNCTIONS = (
    ("hybrid.py", "HybridDirector", "_quiescent"),
    ("hybrid.py", "HybridDirector", "ff_send"),
)

FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def enum_loads(function: ast.AST) -> Iterator[Tuple[int, str]]:
    """``(line, "Enum.MEMBER")`` of every Enum attribute load in ``function``."""
    for node in ast.walk(function):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ENUMS):
            yield node.lineno, f"{node.value.id}.{node.attr}"


def loads_in_functions(tree: ast.Module) -> List[Tuple[int, str]]:
    """Every Enum member load inside some function of ``tree`` (module-level
    statements, where the aliases are bound, are not inside one)."""
    return sorted({
        load
        for node in ast.walk(tree) if isinstance(node, FUNCTION_NODES)
        for load in enum_loads(node)
    })


def method(tree: ast.Module, cls: str, name: str) -> Optional[ast.AST]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    return None


def parse(module: str) -> ast.Module:
    return ast.parse((SIMULATOR / module).read_text(), filename=module)


@pytest.mark.parametrize("module", WHOLE_MODULES)
def test_no_function_of_the_module_loads_an_enum_member(module):
    assert loads_in_functions(parse(module)) == [], (
        f"{module} loads Enum members inside functions; bind a module-level "
        "alias (e.g. `_FAILED = RankState.FAILED`) and read that"
    )


@pytest.mark.parametrize(("module", "cls", "name"), FUNCTIONS, ids=lambda part: part)
def test_no_per_event_function_loads_an_enum_member(module, cls, name):
    function = method(parse(module), cls, name)
    assert function is not None, f"{module} has no {cls}.{name}"
    assert sorted(enum_loads(function)) == []
