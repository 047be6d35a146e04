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
  (:mod:`repro.results.tables`): a table is one schema value carrying its
  columns, title and the builder of its rows from stored records; it
  validates rows and is the one text/CSV/JSON renderer.  The analysis
  modules declare the paper's tables and :data:`repro.analysis.TABLES`
  lists them by name;
* **query** -- :class:`ResultSet` (:mod:`repro.results.query`): filtering
  on spec fields, dotted-path metric selection, group-by/pivot and
  baseline-comparison helpers over campaign outcomes and stores.
"""

from repro.results.metrics import MetricSet, units_for
from repro.results.run import RunResult, make_payload
from repro.results.tables import Column, TableSchema, pivot_rows
from repro.results.query import ResultSet

__all__ = [
    "Column",
    "MetricSet",
    "ResultSet",
    "RunResult",
    "TableSchema",
    "make_payload",
    "pivot_rows",
    "units_for",
]
