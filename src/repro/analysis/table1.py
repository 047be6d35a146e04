"""Table I harness: application clustering on 256 processes.

For each of the six NAS class D kernels the harness

1. builds the communication graph of a full run (per-iteration analytic
   pattern scaled by the NPB iteration count),
2. partitions it into the number of clusters the paper's tool selected
   (Table I of the paper: BT 5, CG 16, FT 2, LU 8, MG 4, SP 6),
3. reports the number of clusters, the average fraction of processes rolled
   back by a single failure and the logged/total volume -- the three columns
   of Table I -- next to the paper's values.

The computation is declared per benchmark as a :class:`ScenarioSpec` with
the ``table1-row`` analysis and executed through the campaign runner (the
cluster-count frontier sweep of ablation E6 is the ``cluster-sweep``
analysis in the same fashion), so whole-table builds parallelise and cache
like any other campaign.

Rows follow the :data:`TABLE1` / :data:`CLUSTER_SWEEP` schemas
(:mod:`repro.results.tables`), which carry their row builders:
``repro-campaign query STORE --table table1`` rebuilds the printed table
from any cached store.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.clustering.comm_graph import CommunicationGraph
from repro.clustering.metrics import ClusteringMetrics
from repro.clustering.partitioner import ClusteringResult, partition, sweep_cluster_counts
from repro.clustering.presets import TABLE1_CLUSTER_COUNTS, TABLE1_PAPER_VALUES
from repro.campaign.jobs import jsonify
from repro.results.metrics import MetricSet
from repro.results.query import ResultSet
from repro.results.run import make_payload
from repro.results.tables import Column, Row, TableSchema
from repro.scenarios.build import build_application
from repro.scenarios.spec import ClusteringSpec, ProtocolSpec, ScenarioSpec, WorkloadSpec
from repro.workloads.nas import NAS_BENCHMARKS


def _rows_from_store(resultset: ResultSet) -> List[Row]:
    return [
        TABLE1.from_mapping(run.data["row"])
        for run in resultset.where(analysis="table1-row")
    ]


def _sweep_rows_from_store(resultset: ResultSet) -> List[Row]:
    return [
        CLUSTER_SWEEP.from_mapping(row)
        for run in resultset.where(analysis="cluster-sweep")
        for row in run.data["rows"]
    ]


#: One row of Table I (measured next to the paper's reference values).
TABLE1 = TableSchema(
    "table1",
    columns=(
        Column("benchmark", "str", header="bench", display=str.upper),
        Column("num_clusters", "int", header="clusters"),
        Column("rollback_pct", "float", units="%", format=".2f", header="rollback %"),
        Column("paper_rollback_pct", "float", units="%", optional=True, header="paper %"),
        Column("logged_pct", "float", units="%", format=".2f", header="logged %"),
        Column("paper_logged_pct", "float", units="%", optional=True, header="paper %"),
        Column("logged_gb", "float", units="GB", format=".1f", header="logged GB"),
        Column("total_gb", "float", units="GB", format=".1f", header="total GB"),
        Column("paper_logged_gb", "float", units="GB", optional=True, header="paper log GB"),
        Column("paper_total_gb", "float", units="GB", optional=True, header="paper total GB"),
        Column("method", "str"),
    ),
    title="Table I -- application clustering on 256 processes (measured vs paper)",
    rows=_rows_from_store,
)

#: The cluster-count frontier of ablation E6 (rollback vs logged volume).
CLUSTER_SWEEP = TableSchema(
    "cluster-sweep",
    columns=(
        Column("clusters", "int"),
        Column("rollback_pct", "float", units="%"),
        Column("logged_pct", "float", units="%"),
        Column("logged_gb", "float", units="GB"),
        Column("method", "str"),
    ),
    title="Cluster-count sweep (rollback vs logged volume)",
    rows=_sweep_rows_from_store,
)


# ------------------------------------------------------------ scenario layer
def table1_specs(
    benchmarks: Optional[Sequence[str]] = None,
    nprocs: int = 256,
    balance_tolerance: float = 1.1,
) -> List[ScenarioSpec]:
    """Application clustering on 256 processes.

    One analytic ``table1-row`` scenario per NAS kernel (default: all six):
    the communication graph of a full run is partitioned into the number of
    clusters the paper's tool selected, and the row reports the average
    fraction of processes one failure rolls back and the logged share of
    the traffic next to the paper's values.
    """
    clustering = ClusteringSpec(
        method="preset", balance_tolerance=balance_tolerance, matrix="full"
    )
    names = NAS_BENCHMARKS if benchmarks is None else benchmarks
    return [
        ScenarioSpec(
            name=f"table1:{name}:np{nprocs}",
            workload=WorkloadSpec(kind=name, nprocs=nprocs, iterations=1),
            protocol=ProtocolSpec(name="hydee", clustering=clustering),
            tags={"experiment": "table1", "analysis": "table1-row", "benchmark": name},
        )
        for name in map(str.lower, names)
    ]


def cluster_sweep_spec(
    benchmark: str = "bt",
    nprocs: int = 256,
    counts: Sequence[int] = (2, 4, 8, 16, 32),
) -> ScenarioSpec:
    """Cluster-count sweep: the rollback vs logged-volume frontier.

    The trade-off the clustering tool optimises (Section V-B, [28]): more
    clusters mean a smaller rollback after a failure but more inter-cluster
    traffic to log.  One analytic ``cluster-sweep`` scenario partitions a
    NAS kernel's full-run communication graph at every requested count.
    """
    name = benchmark.lower()
    return ScenarioSpec(
        name=f"cluster-sweep:{name}:np{nprocs}",
        workload=WorkloadSpec(kind=name, nprocs=nprocs, iterations=1),
        protocol=ProtocolSpec(name="hydee"),
        tags={
            "experiment": "ablation-clusters",
            "analysis": "cluster-sweep",
            "benchmark": name,
            "counts": [int(k) for k in counts],
        },
    )


# ------------------------------------------------------------------- compute
def _compute_row(
    benchmark: str,
    nprocs: int,
    num_clusters: Optional[int],
    balance_tolerance: float,
) -> Tuple[Row, List[List[int]]]:
    """One Table I row plus the cluster membership lists (provenance)."""
    name = benchmark.lower()
    app = build_application(WorkloadSpec(kind=name, nprocs=nprocs, iterations=1))
    graph = CommunicationGraph.from_matrix(app.full_run_matrix())
    k = num_clusters if num_clusters is not None else TABLE1_CLUSTER_COUNTS[name]
    result: ClusteringResult = partition(
        graph, min(k, nprocs), method="auto", balance_tolerance=balance_tolerance
    )
    metrics: ClusteringMetrics = result.metrics
    paper = TABLE1_PAPER_VALUES.get(name, {})
    row = TABLE1.row(
        benchmark=name,
        num_clusters=metrics.num_clusters,
        rollback_pct=100.0 * metrics.rollback_fraction,
        paper_rollback_pct=paper.get("rollback_pct"),
        logged_pct=100.0 * metrics.logged_fraction,
        paper_logged_pct=paper.get("logged_pct"),
        logged_gb=metrics.logged_bytes / 1e9,
        total_gb=metrics.total_bytes / 1e9,
        paper_logged_gb=paper.get("logged_gb"),
        paper_total_gb=paper.get("total_gb"),
        method=result.method,
    )
    return row, result.clusters


def table1_job(spec: ScenarioSpec) -> Tuple[Dict[str, Any], Row]:
    """Campaign job computing one Table I row from its scenario spec."""
    clustering = spec.protocol.clustering
    row, membership = _compute_row(
        spec.workload.kind,
        spec.workload.nprocs,
        clustering.num_clusters,
        clustering.balance_tolerance,
    )
    metrics = MetricSet()
    for key in ("num_clusters", "rollback_pct", "logged_pct", "logged_gb", "total_gb"):
        metrics.set(f"clustering.{key}", row[key])
    payload = make_payload(
        "completed", metrics, {"row": row.to_dict(), "membership": membership}
    )
    return jsonify(payload), row


def cluster_sweep_job(spec: ScenarioSpec) -> Tuple[Dict[str, Any], List[Row]]:
    """Campaign job sweeping the cluster count of one benchmark (E6)."""
    counts = [k for k in spec.tags["counts"] if k <= spec.workload.nprocs]
    app = build_application(spec.workload)
    graph = CommunicationGraph.from_matrix(app.full_run_matrix())
    rows = []
    for result in sweep_cluster_counts(graph, counts):
        metrics = result.metrics
        rows.append(
            CLUSTER_SWEEP.row(
                clusters=metrics.num_clusters,
                rollback_pct=round(100.0 * metrics.rollback_fraction, 2),
                logged_pct=round(100.0 * metrics.logged_fraction, 2),
                logged_gb=round(metrics.logged_bytes / 1e9, 1),
                method=result.method,
            )
        )
    payload = make_payload("completed", None, {"rows": [r.to_dict() for r in rows]})
    return jsonify(payload), rows
