"""Plain-text rendering of experiment tables.

The experiment harnesses return plain data structures (lists of dicts); this
module turns them into the ASCII tables printed by ``repro-experiment`` and
``repro-campaign query``, mirroring the paper's tables/figures as text.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Optional, Sequence


def format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render an ASCII table with aligned columns."""
    str_rows = [[format_value(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(separator)
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_dict_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str],
    headers: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render a list of dict rows, selecting and ordering ``columns``."""
    headers = list(headers) if headers is not None else list(columns)
    data = [[row.get(col, "") for col in columns] for row in rows]
    return format_table(headers, data, title=title)


def percent(value: float, reference: float) -> float:
    """Signed percentage change of ``value`` relative to ``reference``."""
    if reference == 0:
        return 0.0
    return 100.0 * (value - reference) / reference
