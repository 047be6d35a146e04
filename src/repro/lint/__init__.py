"""repro-lint: AST-based determinism-contract analyzer.

The reproduction's correctness argument rests on contracts the test suite
can only check after a violation ships (byte-identical stores, pinned
recovery traces, stable spec hashes).  This package checks the contracts
*statically*: no wall-clock reads or unkeyed RNG streams (RL02), no
unsorted set iteration into ordered output (RL03), flock-guarded store
writes (RL04) and no per-element event fan-out at one timestamp (RL08) --
the rules that have caught a bug, or that keep host clocks inside the two
benchmark-timing modules.  The deliberate holes in these contracts are
listed in :mod:`repro.lint.config`, and only there.

Run ``repro-lint src/repro`` (or ``python -m repro.lint src/repro``);
see ``--list-rules`` for the contract table.
"""

from repro.lint.analyzer import lint_source, run_lint
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules

__all__ = ["Finding", "Rule", "all_rules", "lint_source", "run_lint"]
