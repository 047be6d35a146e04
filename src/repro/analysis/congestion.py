"""Congested-recovery experiment: recovery time vs inter-cluster bandwidth.

The paper's containment argument is about *where* recovery traffic flows:
under HydEE only the failed cluster's ranks replay, and the replayed
messages are served from sender-based logs across inter-cluster links,
while coordinated checkpointing re-executes *every* rank and pushes the
whole communication volume through the fabric again.  On a flat network the
two are indistinguishable time-wise; on a hierarchical topology with an
oversubscribed inter-cluster fabric they diverge -- which is exactly what
this harness quantifies.

For each inter-cluster oversubscription factor and each protocol the
harness runs a failure-free scenario and an identical scenario with one
injected failure; *recovery seconds* is the makespan difference between the
two (the price of the failure, congestion included).  Protocol clusters are
aligned with the physical topology (``ClusteringSpec(method="topology")``)
so HydEE's logged traffic is exactly the traffic crossing the
oversubscribed links.

Scenarios run through the campaign runner under the registered
``congestion-recovery`` analysis job, which records a slim metric tree
(``sim.*`` makespans/rollbacks, ``links.tiers.inter-cluster``,
``network.*``) -- so sweeps cache, fan out over workers, and stay
byte-identical between serial and parallel runs.  The paired rows follow
the :data:`CONGESTION` schema and can be rebuilt from any store with
``repro-campaign query STORE --table congestion``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.results.metrics import MetricSet
from repro.results.query import ResultSet
from repro.results.run import RunResult, make_payload
from repro.results.tables import Column, Row, TableSchema
from repro.scenarios.build import build
from repro.scenarios.spec import (
    ClusteringSpec,
    NetworkSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.simulator.failures import FailureEvent

#: tier key reported by the contention model for the oversubscribed fabric.
INTER_CLUSTER_TIER = "inter-cluster"


# ----------------------------------------------------------------------- job
def congestion_job(spec: ScenarioSpec) -> Tuple[Dict[str, Any], Any]:
    """Campaign job: simulate and keep only the congestion-relevant metrics."""
    from repro.campaign.jobs import jsonify

    result = build(spec).run()
    full = result.metrics
    metrics = MetricSet()
    metrics.set("sim.makespan", full.get("sim.makespan"))
    metrics.set("sim.recovery_time", full.get("sim.recovery_time"))
    metrics.set("sim.ranks_rolled_back", full.get("sim.ranks_rolled_back"))
    metrics.set("protocol.replayed_messages", full.get("protocol.replayed_messages", 0))
    metrics.set("network.contention_wait_s", full.get("network.contention_wait_s", 0.0))
    topology = full.get("network.topology")
    if topology:
        metrics.set("network.topology", topology)
    inter = full.get(f"links.tiers.{INTER_CLUSTER_TIER}")
    if inter:
        metrics.set(f"links.tiers.{INTER_CLUSTER_TIER}", inter)
    return jsonify(make_payload(result.status, metrics, {})), result


# ---------------------------------------------------------------------- specs
def congestion_specs(
    nprocs: int = 16,
    iterations: int = 6,
    failed_rank: int = 5,
    fail_at_iteration: int = 4,
    checkpoint_interval: int = 2,
    oversubscription: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    protocols: Sequence[str] = ("hydee", "coordinated"),
    workload_kind: str = "stencil2d",
    topology_preset: str = "cluster-per-node",
    ranks_per_node: int = 4,
) -> List[ScenarioSpec]:
    """Recovery time of one failure under inter-cluster congestion.

    Declares the (oversubscription x protocol x {failure-free, failure})
    grid over a hierarchical topology (``cluster-per-node`` or
    ``fat-tree-2level``) with protocol clusters aligned to the nodes;
    recovery cost is the makespan difference between the paired runs.  On
    a flat network HydEE and coordinated checkpointing recover in about the
    same time -- the difference is *who* rolls back, not how long the wires
    are busy -- and failure-free time degrades identically for both (same
    traffic, same links).  The containment claim of Sections III-IV shows
    as the fabric thins: HydEE replays only the failed cluster from
    sender-based logs, while coordinated checkpointing re-executes every
    rank and pushes the whole communication volume through the
    oversubscribed links again, so its recovery cost grows faster.
    """
    workload = WorkloadSpec(kind=workload_kind, nprocs=nprocs, iterations=iterations)
    failure = FailureEvent(ranks=(failed_rank,), at_iteration=fail_at_iteration)
    checkpoint_options = {
        "checkpoint_interval": checkpoint_interval,
        "checkpoint_size_bytes": 64 * 1024,
    }

    def protocol_spec(name: str) -> ProtocolSpec:
        if name in ("coordinated", "native", "none"):
            options = checkpoint_options if name == "coordinated" else {}
            return ProtocolSpec(name=name, options=options)
        # Clustered protocols align their clusters with the physical
        # topology: logged inter-cluster traffic == oversubscribed traffic.
        return ProtocolSpec(
            name=name,
            options=checkpoint_options,
            clustering=ClusteringSpec(method="topology"),
        )

    specs: List[ScenarioSpec] = []
    for oversub in oversubscription:
        network = NetworkSpec(
            topology=TopologySpec(
                preset=topology_preset,
                params={
                    "ranks_per_node": ranks_per_node,
                    "oversubscription": float(oversub),
                },
            )
        )
        for name in protocols:
            for role, failures in (("failure-free", ()), ("failure", (failure,))):
                specs.append(
                    ScenarioSpec(
                        name=f"congestion:{name}:o{oversub:g}:{role}",
                        workload=workload,
                        protocol=protocol_spec(name),
                        network=network,
                        failures=failures,
                        tags={
                            "experiment": "congestion-recovery",
                            "analysis": "congestion-recovery",
                            "protocol": name,
                            "oversubscription": float(oversub),
                            "role": role,
                        },
                    )
                )
    return specs


# ----------------------------------------------------------------------- rows
def rows_from_resultset(resultset: ResultSet) -> List[Row]:
    """Pair the failure-free / failure runs of a congestion campaign back into
    :data:`CONGESTION` rows (other runs in the set are ignored).

    Pairing keys include the workload shape, not just (protocol,
    oversubscription): a store holding several sweeps (e.g. two rank
    counts) must never subtract a failure-free makespan of one sweep from
    the failed makespan of another.
    """
    rows: List[Row] = []
    groups = resultset.where(**{"tags.experiment": "congestion-recovery"}).group_by(
        "tags.protocol", "tags.oversubscription",
        "workload.kind", "workload.nprocs", "workload.iterations",
    )
    for key, pair in groups.items():
        protocol, oversub = key[0], key[1]
        by_role: Dict[str, RunResult] = {}
        for run in pair:
            role = str(run.field("tags.role"))
            if role in by_role:
                raise ConfigurationError(
                    f"congestion campaign for {protocol} @ {oversub} has several "
                    f"{role!r} runs for the same workload shape; query a store "
                    "holding one sweep (filter with --where) or re-run with "
                    "distinct workload parameters"
                )
            by_role[role] = run
        if set(by_role) != {"failure-free", "failure"}:
            raise ConfigurationError(
                f"congestion campaign for {protocol} @ {oversub} is missing "
                f"records (got roles: {sorted(by_role)})"
            )
        for role, run in sorted(by_role.items()):
            if not run.completed:
                # A truncated run (timeout/event-limit/deadlock with
                # raise_on_incomplete disabled) would understate recovery
                # time and silently flip the containment conclusion.
                raise ConfigurationError(
                    f"congestion run {protocol} @ oversubscription {oversub} "
                    f"({role}) did not complete: status {run.status!r}"
                )
        free, failed = by_role["failure-free"], by_role["failure"]
        rows.append(
            CONGESTION.row(
                protocol=str(protocol),
                oversubscription=float(oversub),
                failure_free_makespan_s=free.metric("sim.makespan"),
                failed_makespan_s=failed.metric("sim.makespan"),
                recovery_seconds=failed.metric("sim.makespan") - free.metric("sim.makespan"),
                ranks_rolled_back=failed.metric("sim.ranks_rolled_back"),
                replayed_messages=failed.metric("protocol.replayed_messages"),
                inter_cluster_wait_s=failed.metric(
                    f"links.tiers.{INTER_CLUSTER_TIER}.wait_s", 0.0
                ),
                inter_cluster_bytes=failed.metric(
                    f"links.tiers.{INTER_CLUSTER_TIER}.bytes", 0
                ),
            )
        )
    rows.sort(key=lambda row: (row.protocol, row.oversubscription))
    return rows


#: Recovery cost of one protocol at one oversubscription factor.
CONGESTION = TableSchema(
    "congestion",
    columns=(
        Column("protocol", "str"),
        Column("oversubscription", "float", header="oversub"),
        Column("failure_free_makespan_s", "float", units="s", scale=1e3,
               format=".3f", header="free_ms"),
        Column("failed_makespan_s", "float", units="s", scale=1e3,
               format=".3f", header="failed_ms"),
        Column("recovery_seconds", "float", units="s", scale=1e3,
               format=".3f", header="recovery_ms"),
        Column("ranks_rolled_back", "int", header="rolled_back"),
        Column("replayed_messages", "int", header="replayed"),
        Column("inter_cluster_wait_s", "float", units="s", scale=1e3,
               format=".3f", header="inter_wait_ms"),
        Column("inter_cluster_bytes", "int", units="B", scale=1e-6,
               format=".2f", header="inter_MB"),
    ),
    title="Congested recovery: one failure, inter-cluster oversubscription sweep",
    rows=rows_from_resultset,
)


# ------------------------------------------------------------------ reporting
def recovery_divergence(rows: Sequence[Row]) -> Dict[str, float]:
    """Per protocol: recovery time at max oversubscription / at minimum.

    The paper's containment claim predicts this growth factor to be much
    larger for coordinated checkpointing than for HydEE.
    """
    by_protocol: Dict[str, List[Row]] = {}
    for row in rows:
        by_protocol.setdefault(row.protocol, []).append(row)
    divergence: Dict[str, float] = {}
    for protocol, group in by_protocol.items():
        group = sorted(group, key=lambda r: r.oversubscription)
        baseline = group[0].recovery_seconds
        worst = group[-1].recovery_seconds
        divergence[protocol] = worst / baseline if baseline > 0 else float("inf")
    return divergence


def render_congestion(rows: Sequence[Row]) -> str:
    """The table plus each protocol's recovery growth over the sweep."""
    factors = [row.oversubscription for row in rows]
    lines = [CONGESTION.render_text(rows), ""]
    for protocol, factor in sorted(recovery_divergence(rows).items()):
        lines.append(f"recovery growth ({protocol}): x{factor:.2f} "
                     f"from oversubscription {min(factors):g} to {max(factors):g}")
    return "\n".join(lines)
