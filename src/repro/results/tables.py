"""Declarative table schemas: the table layer of :mod:`repro.results`.

A reproduced table is one :class:`TableSchema` value: ordered
:class:`Column` objects (dtype, units, display scale and format), a title,
and -- when the table can be derived from stored records -- the ``rows``
callable that builds its rows from a :class:`~repro.results.query.ResultSet`
(``None`` marks a live-only table).  Each analysis module declares its
schemas next to their row builders, and :data:`repro.analysis.TABLES` lists
them by name for ``repro-campaign query --table NAME``.

The schema is also the one text/CSV/JSON renderer: rows built through it are
validated and ordered once, and plain rows (query selections, campaign
summaries, display pivots) render through :meth:`TableSchema.of_rows`, a
schema of untyped columns named after the rows' keys.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError

_DTYPES = ("str", "int", "float", "bool", "json")


@dataclass(frozen=True)
class Column:
    """One table column: name, dtype, units and how to display it."""

    name: str
    dtype: str = "float"
    units: Optional[str] = None
    optional: bool = False
    #: display multiplier (e.g. ``1e3`` renders seconds as milliseconds)
    scale: float = 1.0
    #: python format spec applied to the scaled value (e.g. ``".3f"``)
    format: Optional[str] = None
    #: header override for rendering (defaults to ``name``)
    header: Optional[str] = None
    #: display transform applied before formatting (e.g. ``str.upper``)
    display: Optional[Callable[[Any], Any]] = None

    def __post_init__(self) -> None:
        if self.dtype not in _DTYPES:
            raise ConfigurationError(
                f"column {self.name!r}: unknown dtype {self.dtype!r} "
                f"(expected one of {_DTYPES})"
            )

    @property
    def title(self) -> str:
        return self.header if self.header is not None else self.name

    def coerce(self, value: Any) -> Any:
        """Validate/normalise a stored value for this column."""
        if value is None:
            if self.optional:
                return None
            raise ConfigurationError(f"column {self.name!r} is required")
        if self.dtype == "json":
            return value
        if self.dtype == "str":
            if not isinstance(value, str):
                raise ConfigurationError(
                    f"column {self.name!r} expects str, got {type(value).__name__}"
                )
            return value
        if self.dtype == "bool":
            if not isinstance(value, bool):
                raise ConfigurationError(
                    f"column {self.name!r} expects bool, got {type(value).__name__}"
                )
            return value
        if self.dtype == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"column {self.name!r} expects int, got {value!r}"
                )
            return value
        # float: ints are acceptable and normalised
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"column {self.name!r} expects a number, got {value!r}"
            )
        return float(value)

    def render(self, value: Any) -> str:
        """Display string for a (raw, unscaled) stored value.

        An absent optional value shows as ``-``; a ``json`` column shows
        whatever it holds, ``None`` included.
        """
        if value is None and self.dtype != "json":
            return "-"
        if self.display is not None:
            value = self.display(value)
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, (int, float)) and self.scale != 1.0:
            value = value * self.scale
        if self.format is not None and isinstance(value, (int, float)):
            return format(value, self.format)
        return _format_value(value)


def _format_value(value: Any) -> str:
    """Default display of a cell: floats to 2 decimals or 3 significant digits."""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


class Row(Mapping[str, Any]):
    """One validated table row: mapping *and* attribute access."""

    __slots__ = ("_schema", "_values")

    _schema: "TableSchema"
    _values: Dict[str, Any]

    def __init__(self, schema: "TableSchema", values: Dict[str, Any]) -> None:
        object.__setattr__(self, "_schema", schema)
        object.__setattr__(self, "_values", values)

    @property
    def schema(self) -> "TableSchema":
        return self._schema

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def __getattr__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(
                f"{self._schema.name!r} row has no column {name!r}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"Row({self._schema.name}, {self._values!r})"

    def to_dict(self) -> Dict[str, Any]:
        """Plain dict in schema column order (the stored/JSON form)."""
        return dict(self._values)


class TableSchema:
    """Ordered, validated column layout of one reproduced table, and the
    builder of its rows from stored records (``None``: live-only)."""

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        title: str = "",
        rows: Optional[Callable[[Any], List[Row]]] = None,
    ) -> None:
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self.title = title
        self.rows = rows
        seen: Set[str] = set()
        for column in self.columns:
            if column.name in seen:
                raise ConfigurationError(
                    f"table {name!r}: duplicate column {column.name!r}"
                )
            seen.add(column.name)
        self._by_name: Dict[str, Column] = {c.name: c for c in self.columns}

    def __repr__(self) -> str:
        return f"TableSchema({self.name!r}, {len(self.columns)} columns)"

    @classmethod
    def of_rows(cls, rows: Sequence[Mapping[str, Any]], title: str = "") -> "TableSchema":
        """A schema for plain rows: one ``json`` column per key, in the order
        the keys first appear."""
        names: Dict[str, None] = {}
        for row in rows:
            names.update(dict.fromkeys(row))
        return cls("", [Column(name, "json") for name in names], title=title)

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    # ------------------------------------------------------------------ rows
    def row(self, **values: Any) -> Row:
        return self.from_mapping(values)

    def from_mapping(self, values: Mapping[str, Any]) -> Row:
        """Validate a mapping into a :class:`Row` (stable column order)."""
        unknown = sorted(set(values) - set(self._by_name))
        if unknown:
            raise ConfigurationError(
                f"table {self.name!r}: unknown column(s) {', '.join(unknown)}"
            )
        out: Dict[str, Any] = {}
        for column in self.columns:
            out[column.name] = column.coerce(values.get(column.name))
        return Row(self, out)

    # ------------------------------------------------------------- rendering
    def render_text(self, rows: Sequence[Mapping[str, Any]], title: Optional[str] = None) -> str:
        """An ASCII table with aligned columns; a cell a row lacks is blank."""
        headers = [c.title for c in self.columns]
        cells = [
            [c.render(row[c.name]) if c.name in row else "" for c in self.columns]
            for row in rows
        ]
        widths = [len(h) for h in headers]
        for line in cells:
            widths = [max(width, len(cell)) for width, cell in zip(widths, line)]
        title = self.title if title is None else title
        lines = [title] if title else []
        lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("-+-".join("-" * w for w in widths))
        lines.extend(" | ".join(c.ljust(w) for c, w in zip(line, widths)) for line in cells)
        return "\n".join(lines)

    def render_csv(self, rows: Sequence[Mapping[str, Any]]) -> str:
        """Raw (unscaled) values as CSV, one header row first."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.column_names)
        writer.writerows([row.get(c.name) for c in self.columns] for row in rows)
        return buffer.getvalue()

    def render_json(self, rows: Sequence[Mapping[str, Any]]) -> str:
        return json.dumps(
            [{c.name: row.get(c.name) for c in self.columns} for row in rows],
            indent=1,
            sort_keys=False,
        )

    def render(self, rows: Sequence[Mapping[str, Any]], fmt: str = "text") -> str:
        if fmt == "text":
            return self.render_text(rows)
        if fmt == "csv":
            return self.render_csv(rows)
        if fmt == "json":
            return self.render_json(rows)
        raise ConfigurationError(f"unknown table format {fmt!r} (text, csv, json)")


def _blocked_rows(resultset: Any) -> List[Row]:
    return [
        BLOCKED.row(record=run.name, status=run.status, rank=int(rank), waits_on=waits_on)
        for run in resultset
        for rank, waits_on in sorted(
            run.data.get("blocked", {}).items(), key=lambda item: int(item[0])
        )
    ]


#: What a ``deadlock`` (or otherwise unfinished) replica record says about
#: itself (``data.blocked``): diagnosable from the store, without a re-run.
BLOCKED = TableSchema(
    "blocked",
    [Column("record", "str"), Column("status", "str"),
     Column("rank", "int"), Column("waits_on", "str")],
    title="Unfinished ranks of non-completed runs and what each waits on",
    rows=_blocked_rows,
)


def pivot_rows(
    rows: Sequence[Mapping[str, Any]],
    index: str,
    columns: str,
    values: str,
) -> List[Dict[str, Any]]:
    """Pivot plain rows: one output row per ``index`` value, one key per
    ``columns`` value, cells taken from ``values`` (first wins).

    Unlike :meth:`ResultSet.pivot` (which sorts rows and columns so query
    output is deterministic regardless of store order), this helper
    preserves the *input* row order on both axes -- it exists for renderers
    that already hold rows in display order (e.g. Figure 6's benchmark
    grouping)."""
    out: Dict[Any, Dict[str, Any]] = {}
    for row in rows:
        key = row.get(index)
        entry = out.setdefault(key, {index: key})
        column = str(row.get(columns))
        if column not in entry:
            entry[column] = row.get(values)
    return [out[key] for key in out]
