"""RL04 -- locked-write discipline.

Campaign stores and archived failure traces are shared between worker
processes; a bare ``open(path, "w")`` there can interleave with a concurrent
reader or writer and corrupt the store (which then shows up as a baffling
byte-identity diff).  All persistent writes in guarded modules must go
through :mod:`repro.fslock` (``exclusive_lock`` + ``atomic_write_text`` /
``atomic_write_json``, as ``ResultsStore.save`` does), which holds an
flock and publishes via ``os.replace`` of a same-directory temp file.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.lint.config import module_is_guarded_write
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule

_WRITE_MODE_CHARS = set("wax+")

_REPLACE_CALLS = frozenset({"os.replace", "os.rename", "shutil.move"})

_PATH_WRITE_METHODS = frozenset({"write_text", "write_bytes"})


def _open_mode(call: ast.Call) -> Optional[str]:
    """The literal mode of an ``open`` call; None when it is not a literal."""
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None and len(call.args) >= 2:
        mode = call.args[1]
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


class LockedWriteRule(Rule):
    id = "RL04"
    name = "locked-write-discipline"
    invariant = (
        "writes under campaign/ and faults/trace.py go through the fslock "
        "atomic-replace helper, never bare open('w') / os.replace"
    )
    rationale = (
        "store and trace files are shared across worker processes; unlocked "
        "in-place writes can interleave and corrupt replayable state"
    )

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        if not module_is_guarded_write(ctx.module):
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id == "open" and fn.id not in ctx.imports:
                mode = _open_mode(node)
                if mode is None or any(ch in _WRITE_MODE_CHARS for ch in mode):
                    findings.append(
                        self.finding(
                            ctx,
                            node.lineno,
                            node.col_offset,
                            "bare open() with a write mode in a guarded module; "
                            "use fslock.atomic_write_text / atomic_write_json "
                            "under exclusive_lock",
                        )
                    )
            elif isinstance(fn, ast.Attribute):
                resolved = ctx.resolve(fn)
                if resolved in _REPLACE_CALLS:
                    findings.append(
                        self.finding(
                            ctx,
                            node.lineno,
                            node.col_offset,
                            f"`{resolved}` in a guarded module bypasses the "
                            "fslock helper; publish via fslock.atomic_write_text "
                            "/ atomic_write_json instead",
                        )
                    )
                elif fn.attr in _PATH_WRITE_METHODS:
                    findings.append(
                        self.finding(
                            ctx,
                            node.lineno,
                            node.col_offset,
                            f".{fn.attr}() in a guarded module bypasses the "
                            "fslock helper; use fslock.atomic_write_text / "
                            "atomic_write_json",
                        )
                    )
        return findings
