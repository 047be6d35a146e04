"""The experiment registry: one :class:`Experiment` per paper artefact.

An entry states *what* to run once -- the keyword signature of its ``run``
is the parameter list -- and everything else is derived from it by
:mod:`repro.experiments.runner`: the command-line flags, the timed
``BENCH_<name>.json`` report and the paper-claim check.  Where reproducing
an artefact is "declare the specs, run the campaign, build the table's
rows", :func:`campaign` does the forwarding and the entry only names the
spec factory and the table schema; a custom ``run`` is kept where there is
real work (multi-phase, live artifacts, self-timed phases).
"""

from __future__ import annotations

import functools
import inspect
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.analysis.congestion import (
    CONGESTION,
    congestion_specs,
    recovery_divergence,
    render_congestion,
)
from repro.analysis.containment import CONTAINMENT, run_containment_experiment
from repro.analysis.efficiency import (
    EFFICIENCY,
    containment_holds,
    render_efficiency,
    run_efficiency_experiment,
    wasted_work_by_protocol,
)
from repro.analysis.netpipe_analysis import NETPIPE, netpipe_specs
from repro.analysis.overhead import FIGURE6, figure6_specs, render_figure6
from repro.analysis.perf_model import PIGGYBACK, analytic_pingpong_series, piggyback_spec
from repro.analysis.table1 import CLUSTER_SWEEP, TABLE1, cluster_sweep_spec, table1_specs
from repro.campaign.runner import run_campaign
from repro.campaign.store import ResultsStore
from repro.clustering.presets import TABLE1_PAPER_VALUES
from repro.errors import ConfigurationError
from repro.experiments.timed import ff_coverage, hybrid_speedup
from repro.results.query import ResultSet
from repro.results.tables import Row, TableSchema
from repro.scenarios.spec import ScenarioSpec

Rows = Sequence[Row]


@dataclass(frozen=True)
class Experiment:
    """One reproducible artefact.

    ``run(**params)`` returns the result (table rows, or a report dict for
    the self-timed entries); its docstring is the entry's ``--help`` text
    and its first line the summary ``repro-experiment list`` prints.
    ``render(result, params)`` is the printed text, ``checks(result)`` the
    paper claim as named booleans, and ``summary(result, elapsed_s)`` the
    JSON fields of the ``--report`` file.  ``table`` is the schema of the
    rows an entry returns (``None`` for the self-timed reports).
    """

    name: str
    artefact: str
    run: Callable[..., Any]
    render: Callable[[Any, Mapping[str, Any]], str]
    checks: Callable[[Any], Dict[str, bool]]
    summary: Callable[[Any, float], Dict[str, Any]]
    table: Optional[TableSchema] = None

    @property
    def title(self) -> str:
        return inspect.cleandoc(self.run.__doc__ or "").splitlines()[0]


def campaign(specs: Callable[..., Any], table: TableSchema) -> Callable[..., List[Row]]:
    """A ``run`` that forwards its parameters to the spec factory ``specs``,
    the declared scenario(s) to the campaign runner, and the records to the
    ``table``'s row builder.  Its signature is the factory's plus the
    runner-owned ``workers`` and ``store``."""

    def run(*, workers: int = 1, store: Optional[ResultsStore] = None, **params: Any) -> List[Row]:
        declared = specs(**params)
        outcome = run_campaign(
            [declared] if isinstance(declared, ScenarioSpec) else declared,
            workers=workers,
            store=store,
        )
        return table.rows(ResultSet.from_campaign(outcome))

    runner_owned = [
        p for p in inspect.signature(run).parameters.values() if p.kind is p.KEYWORD_ONLY
    ]
    functools.update_wrapper(run, specs)
    factory = inspect.signature(specs)
    run.__signature__ = factory.replace(  # type: ignore[attr-defined]
        parameters=[*factory.parameters.values(), *runner_owned]
    )
    return run


def _rows_summary(rows: Rows, _elapsed_s: float) -> Dict[str, Any]:
    return {"rows": [dict(row) for row in rows]}


def _table_entry(
    name: str,
    artefact: str,
    specs: Callable[..., Any],
    table: TableSchema,
    checks: Callable[[Rows], Dict[str, bool]],
    render: Optional[Callable[[Rows, Mapping[str, Any]], str]] = None,
) -> Experiment:
    return Experiment(
        name,
        artefact,
        run=campaign(specs, table),
        render=render or (lambda rows, _params: table.render_text(rows)),
        checks=checks,
        summary=_rows_summary,
        table=table,
    )


def _report_entry(
    name: str,
    artefact: str,
    run: Callable[..., Dict[str, Any]],
    checks: Callable[[Dict[str, Any]], Dict[str, bool]],
) -> Experiment:
    """A self-timed entry: the report dict is the result and the summary."""
    return Experiment(
        name,
        artefact,
        run=run,
        render=lambda report, _params: json.dumps(report, indent=1, sort_keys=True),
        checks=checks,
        summary=lambda report, _elapsed_s: report,
    )


# ------------------------------------------------------------------- checks
def _table1_checks(rows: Rows) -> Dict[str, bool]:
    return {
        "cluster_counts_match_paper": all(
            row.num_clusters == TABLE1_PAPER_VALUES[row.benchmark]["clusters"] for row in rows
        ),
    }


def _figure5_checks(rows: Rows) -> Dict[str, bool]:
    model = analytic_pingpong_series(sizes=[row.bytes for row in rows])
    return {
        "overhead_bounded": min(row.lat_log_pct for row in rows) > -45.0,
        "overhead_vanishes_for_large_messages": all(
            row.lat_log_pct > -2.5 for row in rows if row.bytes >= 64 * 1024
        ),
        "logging_costs_no_more_than_piggybacking": all(
            abs(row.lat_log_pct - row.lat_no_log_pct) < 5.0 for row in rows
        ),
        "matches_closed_form_model": all(
            abs(row.lat_log_pct - predicted) < 3.0
            for row, predicted in zip(rows, model["latency_reduction_logging_pct"])
        ),
    }


def _figure6_checks(rows: Rows) -> Dict[str, bool]:
    cells = {(row.benchmark, row.config): row for row in rows}
    pairs = [
        (cells[bench, "hydee"], cells[bench, "message_logging"])
        for bench, config in cells
        if config == "native"
    ]
    return {
        "hydee_overhead_below_8_percent": all(1.0 < h.normalized < 1.08 for h, _ in pairs),
        "hydee_at_most_full_logging": all(
            h.normalized <= full.normalized + 1e-6 for h, full in pairs
        ),
        "hydee_logs_a_fraction_of_the_traffic": all(
            h.logged_fraction < full.logged_fraction for h, full in pairs
        ),
    }


def _containment_checks(rows: Rows) -> Dict[str, bool]:
    rolled_back = {row.protocol: row.ranks_rolled_back for row in rows}
    return {
        "rollback_ordering": (
            rolled_back["message-logging"] < rolled_back["hydee"] < rolled_back["coordinated"]
        ),
        "every_protocol_recovers_correctly": all(
            row.results_match_reference and row.send_sequences_match for row in rows
        ),
    }


def _congestion_checks(rows: Rows) -> Dict[str, bool]:
    growth = recovery_divergence(rows)
    rolled_back = {(row.protocol, row.oversubscription): row.ranks_rolled_back for row in rows}
    return {
        "coordinated_recovery_grows_faster": growth["coordinated"] > growth["hydee"],
        "hydee_rolls_back_fewer_ranks": all(
            count < rolled_back["coordinated", oversub]
            for (protocol, oversub), count in rolled_back.items()
            if protocol == "hydee"
        ),
    }


def _efficiency_summary(rows: Rows, elapsed_s: float) -> Dict[str, Any]:
    replica_sims = sum(row.replicas for row in rows)
    return {
        "replica_sims": replica_sims,
        "replicas_per_s": round(replica_sims / elapsed_s, 2),
        "containment_holds": containment_holds(rows),
        "wasted_work_us": {
            f"{mtbf * 1e3:.3f}ms": {k: round(v * 1e6, 2) for k, v in sorted(point.items())}
            for mtbf, point in sorted(wasted_work_by_protocol(rows).items())
        },
    }


def _piggyback_checks(rows: Rows) -> Dict[str, bool]:
    # Section V-A: the prototype's rule behaves like the inline policy below
    # 1 KiB and like the separate-message policy from there on.
    return {
        "no_piggyback_costs_nothing": all(abs(row["none_pct"]) < 1e-9 for row in rows),
        "hybrid_rule_is_inline_then_separate": all(
            abs(row["inline-small-separate-large_pct"]
                - row["inline_pct" if row["bytes"] < 1024 else "separate_pct"]) < 0.1
            for row in rows
        ),
    }


def _cluster_sweep_checks(rows: Rows) -> Dict[str, bool]:
    rollbacks = [row.rollback_pct for row in rows]
    return {"rollback_shrinks_with_cluster_count": rollbacks == sorted(rollbacks, reverse=True)}


def _hybrid_checks(report: Dict[str, Any]) -> Dict[str, bool]:
    modes = (report["exact"], report["hybrid"])
    return {
        "all_replicas_completed": all(
            mode["completed_replicas"] == report["replicas"] for mode in modes
        ),
        "zero_fallbacks": report["hybrid"]["fallback_replicas"] == 0,
        "makespan_mean_within_1_percent": report["makespan_mean_rel_err"] < 0.01,
    }


def _ff_coverage_checks(report: Dict[str, Any]) -> Dict[str, bool]:
    cells = [
        cell for entry in report["workloads"].values() for cell in entry["cells"].values()
    ]
    return {
        # over the whole grid, from either start
        "zero_fallbacks": not any(cell["fallback"] for cell in cells),
        "cached_start_batches_wherever_self_calibrated_does": all(
            cell["cached"]["batched_iterations"] > 0
            for cell in cells if cell["self_calibrated"]["batched_iterations"] > 0
        ),
        # A span needs five boundaries past its probe (six under HydEE) to
        # jump; from the cache, seven fast-forwarded ones suffice in every
        # cell that batches.
        "long_batched_spans_commit_one_line": all(
            cell["cached"]["line_commits"] < cell["cached"]["ff_checkpoints"]
            for cell in cells
            if cell["cached"]["batched_iterations"] > 0
            and cell["cached"]["ff_checkpoints"] >= 7 * report["nprocs"]
        ),
    }


# ------------------------------------------------------------------ entries
EXPERIMENTS: Dict[str, Experiment] = {
    entry.name: entry
    for entry in (
        _table_entry("table1", "Table I", table1_specs, TABLE1, _table1_checks),
        _table_entry("figure5", "Figure 5", netpipe_specs, NETPIPE, _figure5_checks),
        _table_entry(
            "figure6", "Figure 6", figure6_specs, FIGURE6, _figure6_checks,
            render=lambda rows, _params: render_figure6(rows),
        ),
        Experiment(
            "recovery-containment",
            "Sections III-IV",
            run=run_containment_experiment,
            render=lambda rows, _params: CONTAINMENT.render_text(rows),
            checks=_containment_checks,
            summary=_rows_summary,
            table=CONTAINMENT,
        ),
        _table_entry(
            "congestion-recovery", "extension (topology)", congestion_specs, CONGESTION,
            _congestion_checks, render=lambda rows, _params: render_congestion(rows),
        ),
        Experiment(
            "efficiency-mtbf",
            "extension (Monte Carlo)",
            run=run_efficiency_experiment,
            render=lambda rows, _params: render_efficiency(rows),
            checks=lambda rows: {
                "containment_holds": containment_holds(rows),
                "every_replica_completes": all(
                    row.completed_replicas == row.replicas for row in rows
                ),
            },
            summary=_efficiency_summary,
            table=EFFICIENCY,
        ),
        _table_entry(
            "ablation-piggyback", "Section V-A", piggyback_spec, PIGGYBACK,
            _piggyback_checks,
        ),
        _table_entry(
            "ablation-clusters", "Section V-B", cluster_sweep_spec, CLUSTER_SWEEP,
            _cluster_sweep_checks,
            render=lambda rows, params: CLUSTER_SWEEP.render_text(
                rows,
                title=f"Cluster-count sweep for {params['benchmark'].upper()} "
                      "(rollback vs logged volume)",
            ),
        ),
        _report_entry("hybrid", "extension (hybrid)", hybrid_speedup, _hybrid_checks),
        _report_entry(
            "ff-coverage", "extension (hybrid)", ff_coverage,
            _ff_coverage_checks,
        ),
    )
}


def run(name: str, **params: Any) -> Any:
    """Run the registry entry ``name`` with keyword ``params``."""
    try:
        entry = EXPERIMENTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
        ) from None
    return entry.run(**params)
