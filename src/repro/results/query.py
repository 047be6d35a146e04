"""Queryable result sets: the query layer of :mod:`repro.results`.

A :class:`ResultSet` is an ordered, immutable collection of
:class:`~repro.results.run.RunResult` objects built from a campaign
outcome, one or more :class:`~repro.campaign.store.ResultsStore` files, or
raw records.  It supports

* filtering on spec fields with dotted paths and shorthand aliases
  (``where(protocol="hydee", **{"network.topology.preset": "hierarchical"})``),
* dotted-path metric selection (``metric("sim.makespan")``, ``select(...)``),
* deterministic group-by and pivot,
* baseline comparison (``overhead_vs`` / ``speedup``).

All ordering is deterministic: runs keep their input order, and group /
pivot outputs are sorted by key, so a query over a serial store and over
an ``--workers N`` store produces identical output.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.results.run import RunResult

_MISSING = object()


class ResultSet:
    """An ordered collection of runs with spec/metric query helpers."""

    def __init__(self, runs: Sequence[RunResult]) -> None:
        self._runs: Tuple[RunResult, ...] = tuple(runs)

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_records(cls, records: Sequence[Mapping[str, Any]], strict: bool = True) -> "ResultSet":
        return cls([RunResult.from_record(r, strict=strict) for r in records])

    @classmethod
    def from_campaign(cls, outcome: Any) -> "ResultSet":
        """Wrap a :class:`~repro.campaign.runner.CampaignResult`."""
        return cls.from_records(outcome.records)

    @classmethod
    def from_store(cls, *stores: Any) -> "ResultSet":
        """Load one or more stores (paths or :class:`ResultsStore` objects).

        Records are ordered by store, then by spec hash, for determinism.
        """
        from repro.campaign.store import ResultsStore

        runs: List[RunResult] = []
        for store in stores:
            if isinstance(store, str):
                store = ResultsStore(store)
            records = store.records()
            for spec_hash in sorted(records):
                runs.append(RunResult.from_record(records[spec_hash]))
        return cls(runs)

    # -------------------------------------------------------------- container
    @property
    def runs(self) -> Tuple[RunResult, ...]:
        return self._runs

    def __len__(self) -> int:
        return len(self._runs)

    def __iter__(self) -> Iterator[RunResult]:
        return iter(self._runs)

    def __getitem__(self, index: int) -> RunResult:
        return self._runs[index]

    def __repr__(self) -> str:
        return f"ResultSet({len(self._runs)} runs)"

    # ------------------------------------------------------------------ query
    def where(self, predicate: Optional[Callable[[RunResult], bool]] = None,
              **filters: Any) -> "ResultSet":
        """Runs matching every filter (spec fields, tags, metrics).

        Filter keys resolve like :meth:`RunResult.field`; a run without the
        field never matches.  Values compare with ``==`` (ints and floats
        compare numerically).
        """
        selected: List[RunResult] = []
        for run in self._runs:
            if predicate is not None and not predicate(run):
                continue
            if all(_matches(run.field(path, _MISSING), value)
                   for path, value in filters.items()):
                selected.append(run)
        return ResultSet(selected)

    def select(self, *paths: str, default: Any = None) -> List[Tuple[Any, ...]]:
        """One tuple per run with the requested field values."""
        return [tuple(run.field(p, default) for p in paths) for run in self._runs]

    def metric(self, path: str, default: Any = None) -> List[Any]:
        """The given metric for every run, in set order."""
        return [run.metric(path, default) for run in self._runs]

    def group_by(self, *paths: str) -> "Dict[Tuple[Any, ...], ResultSet]":
        """Deterministic grouping: keys sorted, runs keep input order."""
        groups: Dict[Tuple[Any, ...], List[RunResult]] = {}
        for run in self._runs:
            key = tuple(run.field(p) for p in paths)
            groups.setdefault(key, []).append(run)
        return {
            key: ResultSet(groups[key])
            for key in sorted(groups, key=lambda k: json.dumps(k, sort_keys=True, default=str))
        }

    def pivot(self, index: str, columns: str, values: str) -> List[Dict[str, Any]]:
        """One output row per ``index`` value, one key per ``columns`` value,
        cells filled with the ``values`` field (first run wins); rows and
        columns are sorted for determinism."""
        cells: Dict[Any, Dict[str, Any]] = {}
        for run in self._runs:
            key = run.field(index)
            entry = cells.setdefault(key, {})
            column = str(run.field(columns))
            if column not in entry:
                entry[column] = run.field(values)
        out: List[Dict[str, Any]] = []
        for key in sorted(cells, key=lambda k: json.dumps(k, default=str)):
            row: Dict[str, Any] = {index: key}
            row.update({c: cells[key][c] for c in sorted(cells[key])})
            out.append(row)
        return out

    # ------------------------------------------------------------- comparison
    def overhead_vs(
        self,
        metric: str = "sim.makespan",
        index: Sequence[str] = (),
        **baseline: Any,
    ) -> List[Tuple[RunResult, float]]:
        """Per-run ratio of ``metric`` to the matching baseline run.

        The baseline runs are the subset matching ``baseline`` filters; a
        non-baseline run is matched to the baseline with equal ``index``
        field values.  Returns ``(run, ratio)`` pairs in set order (the
        baseline itself has ratio 1.0).  Example: normalised Figure 6 times
        are ``overhead_vs(metric="sim.makespan", index=("tags.benchmark",),
        **{"tags.config": "native"})``.
        """
        baselines = self.where(**baseline)
        by_index: Dict[Tuple[Any, ...], RunResult] = {}
        for run in baselines:
            key = tuple(run.field(p) for p in index)
            if key in by_index:
                raise ConfigurationError(
                    f"ambiguous baseline: several runs match {baseline!r} "
                    f"for index {key!r}"
                )
            by_index[key] = run
        out: List[Tuple[RunResult, float]] = []
        for run in self._runs:
            key = tuple(run.field(p) for p in index)
            base = by_index.get(key)
            if base is None:
                raise ConfigurationError(
                    f"no baseline run matching {baseline!r} for index {key!r}"
                )
            base_value = _number(base, metric)
            value = _number(run, metric)
            out.append((run, value / base_value if base_value else float("inf")))
        return out

    def speedup(
        self,
        metric: str = "sim.makespan",
        index: Sequence[str] = (),
        **baseline: Any,
    ) -> List[Tuple[RunResult, float]]:
        """Inverse of :meth:`overhead_vs`: baseline time / run time."""
        return [
            (run, 1.0 / ratio if ratio else float("inf"))
            for run, ratio in self.overhead_vs(metric=metric, index=index, **baseline)
        ]

    # -------------------------------------------------------------- summaries
    def summary_rows(self) -> List[Dict[str, Any]]:
        """Per-run summary rows (the default ``query`` CLI output)."""
        rows: List[Dict[str, Any]] = []
        for run in self._runs:
            rows.append(
                {
                    "name": run.name,
                    "analysis": run.analysis,
                    "status": run.status,
                    "makespan_ms": (
                        round(run.metric("sim.makespan") * 1e3, 3)
                        if isinstance(run.metric("sim.makespan"), (int, float))
                        else "-"
                    ),
                    "hash": run.spec_hash,
                }
            )
        return rows


def _matches(actual: Any, expected: Any) -> bool:
    if actual is _MISSING:
        return False
    if isinstance(actual, (int, float)) and isinstance(expected, (int, float)) \
            and not isinstance(actual, bool) and not isinstance(expected, bool):
        return float(actual) == float(expected)
    return bool(actual == expected)


def _number(run: RunResult, metric: str) -> Union[int, float]:
    value = run.metric(metric, _MISSING)
    if value is _MISSING or isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"run {run.name!r} has no numeric metric {metric!r} (got {value!r})"
        )
    return value
