"""RL02 -- per-run nondeterminism sources: clocks, entropy, unkeyed RNGs, id().

Simulated time is the only clock the reproduction is allowed to read:
``time.time`` / ``datetime.now`` / ``uuid`` / ``os.urandom`` all vary run
to run, so any value derived from them that reaches a record, trace, hash
or metric breaks byte identity.  Random draws are held to the same
standard: every stream must be a ``random.Random`` built by
``faults/distributions.py``'s ``derive_rng`` (SHA-256-keyed by scenario
hash, trial index and purpose label).  Module-level ``random.*`` functions
draw from interpreter-global state that any import can perturb,
``random.seed`` mutates that state for everyone, and ``numpy.random`` adds
a second, platform-sensitive global stream.  ``id()`` is flagged only where
its result flows into hashes or rendered output (identity *comparison* via
sets is a legitimate, run-local use).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.lint.config import RNG_FACTORY_MODULES
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule

_BANNED = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
    }
)

_BANNED_PREFIXES = ("uuid.", "secrets.")

#: Mutate interpreter-global RNG state: banned everywhere, no exemption.
_RNG_GLOBAL_MUTATORS = frozenset(
    {
        "random.seed",
        "random.setstate",
        "numpy.random.seed",
        "numpy.random.set_state",
    }
)

#: RNG constructors: allowed only inside the derive_rng factory module.
_RNG_FACTORY_ONLY = frozenset(
    {
        "random.Random",
        "random.SystemRandom",
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
    }
)

_RNG_PREFIXES = ("random.", "numpy.random.")

#: consumers that turn ``id()`` into persistent/rendered output
_ID_SINKS = frozenset({"hash", "str", "repr", "hex", "format"})


def _imported_name_chains(ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
    """``(node, resolved_dotted_name)`` for every maximal import-backed chain.

    A chain is maximal when its parent is not a longer attribute chain, so
    ``numpy.random.seed`` yields once, not three times; chains rooted at a
    local (``rng.random()``) are not import-backed and are skipped.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        parent = ctx.parent(node)
        if isinstance(parent, ast.Attribute) and parent.value is node:
            continue
        root: ast.AST = node
        while isinstance(root, ast.Attribute):
            root = root.value
        if not (isinstance(root, ast.Name) and root.id in ctx.imports):
            continue
        resolved = ctx.resolve(node)
        if resolved is not None:
            yield node, resolved


def _source_violation(resolved: str, in_rng_factory: bool) -> Optional[str]:
    """Why reading ``resolved`` breaks run-to-run identity, or None."""
    if resolved in _BANNED or resolved.startswith(_BANNED_PREFIXES):
        return (
            f"`{resolved}` is a per-run nondeterminism source; derive the "
            "value from the scenario spec or simulated clock instead"
        )
    if resolved in _RNG_GLOBAL_MUTATORS:
        return (
            f"`{resolved}` mutates interpreter-global RNG state; derive a "
            "keyed stream via faults.distributions.derive_rng instead"
        )
    if resolved in _RNG_FACTORY_ONLY:
        if in_rng_factory:
            return None
        return (
            f"`{resolved}` constructed outside the RNG factory module; use "
            "faults.distributions.derive_rng so the stream is SHA-256-keyed "
            "and replayable"
        )
    if resolved.startswith(_RNG_PREFIXES):
        return (
            f"`{resolved}` draws from the module-level global RNG; use a "
            "derive_rng stream instead"
        )
    return None


class NondeterminismSourceRule(Rule):
    id = "RL02"
    name = "nondeterminism-sources"
    invariant = (
        "no wall-clock reads (time.time, datetime.now, ...), uuid/secrets/"
        "os.urandom, module-level random.* / numpy.random or global seeding "
        "(RNG streams come from faults.distributions.derive_rng only), or "
        "id() flowing into hashes or output"
    )
    rationale = (
        "values that differ run to run poison every downstream record, "
        "trace and spec hash, and a stray draw or re-seed of the shared "
        "global RNG desynchronises replayed failure traces; simulated time "
        "and keyed streams are the only permitted sources"
    )

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        in_rng_factory = ctx.module in RNG_FACTORY_MODULES
        for node, resolved in _imported_name_chains(ctx):
            message = _source_violation(resolved, in_rng_factory)
            if message is not None:
                findings.append(
                    self.finding(ctx, node.lineno, node.col_offset, message)
                )
        findings.extend(self._id_sinks(ctx))
        return findings

    def _id_sinks(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and "id" not in ctx.imports
            ):
                continue
            parent = ctx.parent(node)
            flagged = False
            if isinstance(parent, ast.FormattedValue):
                flagged = True
            elif isinstance(parent, ast.Call):
                fn = parent.func
                if isinstance(fn, ast.Name) and fn.id in _ID_SINKS:
                    flagged = True
                elif isinstance(fn, ast.Attribute) and fn.attr in (
                    "update",
                    "hexdigest",
                    "format",
                    "write",
                ):
                    flagged = True
            elif isinstance(parent, ast.BinOp):
                flagged = True  # string building / arithmetic on addresses
            if flagged:
                findings.append(
                    self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        "id() is an allocator address and varies run to run; "
                        "never feed it into hashes, strings, or records "
                        "(identity comparison via sets is fine)",
                    )
                )
        return findings
