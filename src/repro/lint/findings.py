"""Findings: what ``repro-lint`` reports.

A :class:`Finding` is one violation of a determinism contract at one
``file:line``.  The CLI renders each as one line of text,
``path:line:col: RLxx message``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Finding:
    """One determinism-contract violation at ``path:line:col``."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
