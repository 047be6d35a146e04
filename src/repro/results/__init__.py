"""Typed, versioned results API for the reproduction.

Every simulated or analytic run produces one :class:`~repro.results.run.
RunResult`: the scenario's spec hash (provenance), a namespaced
:class:`~repro.results.metrics.MetricSet` (``sim.*``, ``protocol.*``,
``network.*``, ``links.*``) and a small job-specific ``data`` payload.
Campaign stores persist run results as version-2 records.

The package has three layers:

* **schema** -- :class:`Metric` / :class:`MetricSet` (:mod:`repro.results.
  metrics`) and :class:`RunResult` (:mod:`repro.results.run`): one typed
  contract for everything a run reports, with strict JSON round-trips;
* **tables** -- :class:`Column` / :class:`TableSchema` / :class:`Row`
  (:mod:`repro.results.tables`): a declarative registry the analysis
  modules register their paper tables into (validation, stable column
  order, text/CSV/JSON rendering);
* **query** -- :class:`ResultSet` (:mod:`repro.results.query`): filtering
  on spec fields, dotted-path metric selection, group-by/pivot and
  baseline-comparison helpers over campaign outcomes and stores.
"""

from repro.results.metrics import Metric, MetricSet, units_for
from repro.results.run import RunResult, make_payload
from repro.results.tables import (
    Column,
    Row,
    TableSchema,
    available_tables,
    build_table,
    get_table,
    pivot_rows,
    register_table,
)
from repro.results.query import ResultSet

__all__ = [
    "Column",
    "Metric",
    "MetricSet",
    "ResultSet",
    "Row",
    "RunResult",
    "TableSchema",
    "available_tables",
    "build_table",
    "get_table",
    "make_payload",
    "pivot_rows",
    "register_table",
    "units_for",
]
