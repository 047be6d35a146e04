"""Figure 6 harness: NAS failure-free overhead.

For each NAS kernel the harness runs the same workload under three
configurations and reports the execution time normalized to native MPICH2:

* ``native``           -- no fault-tolerance protocol,
* ``message_logging``  -- HydEE's mechanisms with *every* message payload
  logged (the "Message Logging" bars of Figure 6),
* ``hydee``            -- HydEE with the process clustering computed by the
  clustering tool (partial logging).

The paper reports a worst-case overhead of ~1.25 % for HydEE and slightly
more when everything is logged; the shape to reproduce is "both are small,
HydEE is consistently at or below full logging".

Every run is declared as a :class:`~repro.scenarios.spec.ScenarioSpec` and
executed through the campaign runner.  The result is a flat table (one
:data:`FIGURE6` row per benchmark x configuration) whose ``normalized``
column is derived through :meth:`ResultSet.overhead_vs` against the native
baseline -- the same query that ``repro-campaign query --table figure6``
runs over a cached store.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.clustering.presets import FIGURE6_PAPER_OVERHEAD
from repro.results.query import ResultSet
from repro.results.tables import Column, Row, TableSchema, pivot_rows
from repro.scenarios.spec import (
    ClusteringSpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.workloads.nas import NAS_BENCHMARKS


def _rows_from_store(resultset: ResultSet) -> List[Row]:
    runs = resultset.where(**{"tags.experiment": "figure6"})
    return [
        FIGURE6.row(
            benchmark=run.field("tags.benchmark"),
            nprocs=run.field("workload.nprocs"),
            iterations=run.field("workload.iterations"),
            config=run.field("tags.config"),
            makespan_s=run.metric("sim.makespan"),
            normalized=ratio,
            logged_fraction=run.metric("sim.logged_fraction_bytes"),
        )
        for run, ratio in runs.overhead_vs(
            metric="sim.makespan",
            # The baseline index carries the workload shape so a store
            # holding figure6 sweeps at several sizes normalises each run
            # against the native run of *its own* sweep.
            index=("tags.benchmark", "workload.nprocs", "workload.iterations"),
            **{"tags.config": "native"},
        )
    ]


#: One Figure 6 bar: a benchmark under one protocol configuration.
FIGURE6 = TableSchema(
    "figure6",
    columns=(
        Column("benchmark", "str", header="bench", display=str.upper),
        Column("nprocs", "int"),
        Column("iterations", "int"),
        Column("config", "str"),
        Column("makespan_s", "float", units="s", scale=1e3, format=".3f",
               header="makespan_ms"),
        Column("normalized", "float", format=".4f"),
        Column("logged_fraction", "float", units="ratio", scale=100.0,
               format=".1f", header="logged %"),
    ),
    title="Figure 6 -- NAS failure-free execution time normalized to native MPICH2",
    rows=_rows_from_store,
)


def figure6_specs(
    benchmarks: Optional[Sequence[str]] = None,
    nprocs: int = 64,
    iterations: int = 2,
    include_hybrid_event_logging: bool = False,
) -> List[ScenarioSpec]:
    """NAS failure-free execution time normalized to native MPICH2.

    Every NAS kernel (default: all six) runs under ``native``,
    ``message_logging`` (every payload logged) and ``hydee`` (the paper's
    Table I cluster count, partitioned from the kernel's analytic
    communication matrix), optionally also under the hybrid protocol with
    event logging.  The paper uses 256 processes; the default is 64 so the
    grid completes in seconds (at 256 the FT all-to-all dominates).
    """
    clustering = ClusteringSpec(method="preset")
    configs = {
        "native": ProtocolSpec(name="native"),
        "message_logging": ProtocolSpec(name="hydee-log-all"),
        "hydee": ProtocolSpec(name="hydee", clustering=clustering),
    }
    if include_hybrid_event_logging:
        configs["hybrid_event_logging"] = ProtocolSpec(
            name="hybrid-event-logging", clustering=clustering
        )
    names = NAS_BENCHMARKS if benchmarks is None else benchmarks
    return [
        ScenarioSpec(
            name=f"figure6:{name}:{config}",
            workload=WorkloadSpec(kind=name, nprocs=nprocs, iterations=iterations),
            protocol=protocol,
            tags={"experiment": "figure6", "benchmark": name, "config": config},
        )
        for name in map(str.lower, names)
        for config, protocol in configs.items()
    ]


def by_config(rows: Sequence[Row], benchmark: Optional[str] = None) -> Dict[str, Row]:
    """Index rows by configuration (optionally restricted to one benchmark)."""
    return {
        row.config: row
        for row in rows
        if benchmark is None or row.benchmark == benchmark
    }


def render_figure6(rows: Sequence[Row]) -> str:
    """One line per benchmark, one column per config, then the paper's bars."""
    configs: List[str] = []
    for row in rows:
        if row.config not in configs:
            configs.append(row.config)
    normalized = {
        (r["benchmark"], r["config"]): r for r in rows
    }
    pivoted = pivot_rows(rows, index="benchmark", columns="config", values="normalized")
    display = []
    for entry in pivoted:
        bench = entry["benchmark"]
        out = {"bench": str(bench).upper()}
        any_row = next(r for r in rows if r.benchmark == bench)
        out["nprocs"] = any_row.nprocs
        for config in configs:
            out[f"{config} (norm.)"] = round(entry.get(config, 0.0), 4)
        hydee_row = normalized.get((bench, "hydee"))
        out["hydee logged %"] = (
            round(100.0 * hydee_row.logged_fraction, 1) if hydee_row is not None else "-"
        )
        display.append(out)
    lines = [
        TableSchema.of_rows(display, title=FIGURE6.title).render_text(display),
        "",
        "Paper reference points (normalized time read off Figure 6):",
    ]
    for name, values in FIGURE6_PAPER_OVERHEAD.items():
        lines.append(
            f"  {name.upper():3s}: message logging ~{values['message_logging']:.3f}, "
            f"HydEE ~{values['hydee']:.3f}"
        )
    return "\n".join(lines)
