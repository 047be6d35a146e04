"""Failure-containment and recovery experiments (Sections III-IV claims).

The paper's central functional claim -- beyond the overhead numbers -- is
that a failure only rolls back the failed process's cluster, that recovery
replays only logged inter-cluster messages, and that the recovered execution
is correct.  This harness quantifies those properties and compares HydEE
against the baseline protocols:

* fraction of processes rolled back by one failure,
* number of messages replayed from logs,
* number of orphan messages handled without event logging,
* whether the final application results match the failure-free reference.

Every run is declared as a :class:`~repro.scenarios.spec.ScenarioSpec` and
executed through the campaign runner.  Unlike the overhead sweeps, this
experiment needs the *live* simulation results (send-sequence traces and
per-rank results to compare against the reference), so the campaign runs
with ``keep_artifacts=True`` and per-event tracing enabled, and records are
not cached; protocol counters are read from each result's
:class:`~repro.results.metrics.MetricSet` (``protocol.*``), never from raw
stat dicts.  The row layout is the :data:`CONTAINMENT` schema.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.campaign.runner import run_campaign
from repro.results.tables import Column, Row, TableSchema
from repro.scenarios.spec import (
    ClusteringSpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.simulator.failures import FailureEvent
from repro.simulator.trace import compare_send_sequences

#: Outcome of one protocol's recovery from one failure scenario.  Live-only
#: (needs traces), so the schema has no row builder.
CONTAINMENT = TableSchema(
    "containment",
    columns=(
        Column("protocol", "str"),
        Column("failed_ranks", "str", header="failed"),
        Column("ranks_rolled_back", "int", header="rolled_back"),
        Column("rolled_back_pct", "float", units="%", format=".1f"),
        Column("replayed_messages", "int", header="replayed"),
        Column("suppressed_orphans", "int", header="orphans"),
        Column("logged_bytes", "int", units="B", scale=1e-6, format=".2f",
               header="logged_MB"),
        Column("recovery_time_s", "float", units="s", scale=1e3, format=".3f",
               header="recovery_ms"),
        Column("results_match_reference", "bool", header="correct"),
        Column("send_sequences_match", "bool", header="send_det"),
    ),
    title="Failure containment: one failure, same workload, different protocols",
)


def containment_specs(
    nprocs: int = 16,
    iterations: int = 8,
    failed_ranks: Sequence[int] = (5,),
    fail_at_iteration: int = 5,
    checkpoint_interval: int = 2,
    num_clusters: int = 4,
    protocols: Sequence[str] = ("hydee", "coordinated", "message-logging"),
) -> List[ScenarioSpec]:
    """Declare the reference run plus one failure run per protocol."""
    workload = WorkloadSpec(kind="stencil2d", nprocs=nprocs, iterations=iterations)
    failure = FailureEvent(ranks=tuple(failed_ranks), at_iteration=fail_at_iteration)
    # Send-sequence comparisons need per-event traces on both sides.
    config = {"record_trace_events": True}
    checkpoint_options = {
        "checkpoint_interval": checkpoint_interval,
        "checkpoint_size_bytes": 64 * 1024,
    }

    def protocol_spec(name: str) -> ProtocolSpec:
        if name == "hydee":
            # Equal contiguous blocks so the rollback fraction is exactly
            # num_clusters**-1 and rows are easy to interpret; the graph
            # partitioner is exercised by the Table I harness.
            return ProtocolSpec(
                name="hydee",
                options=checkpoint_options,
                clustering=ClusteringSpec(method="block", num_clusters=num_clusters),
            )
        return ProtocolSpec(name=name, options=checkpoint_options)

    specs = [
        ScenarioSpec(
            name="containment:reference",
            workload=workload,
            protocol=ProtocolSpec(name="native"),
            config=config,
            tags={"experiment": "containment", "role": "reference"},
        )
    ]
    specs.extend(
        ScenarioSpec(
            name=f"containment:{name}",
            workload=workload,
            protocol=protocol_spec(name),
            failures=(failure,),
            config=config,
            tags={"experiment": "containment", "role": "failure", "protocol": name},
        )
        for name in protocols
    )
    return specs


def run_containment_experiment(
    nprocs: int = 16,
    iterations: int = 8,
    failed_ranks: Sequence[int] = (5,),
    fail_at_iteration: int = 5,
    checkpoint_interval: int = 2,
    num_clusters: int = 4,
    workers: int = 1,
) -> List[Row]:
    """Failure containment and recovery correctness, protocol by protocol.

    Injects the same failure under HydEE, global coordinated checkpointing
    and full message logging, and reports who rolls back, what is replayed,
    and whether the recovered execution matches the failure-free reference
    (per-rank results and send sequences).  The campaign keeps its live
    artifacts -- the comparison needs traces -- so nothing is cached.
    """
    specs = containment_specs(
        nprocs=nprocs,
        iterations=iterations,
        failed_ranks=failed_ranks,
        fail_at_iteration=fail_at_iteration,
        checkpoint_interval=checkpoint_interval,
        num_clusters=num_clusters,
    )
    outcome = run_campaign(specs, workers=workers, keep_artifacts=True)

    reference = outcome.artifacts[0]
    rows: List[Row] = []
    for spec, result in zip(outcome.specs[1:], outcome.artifacts[1:]):
        name = spec.tags["protocol"]
        mismatches = compare_send_sequences(reference.trace, result.trace)
        rows.append(
            CONTAINMENT.row(
                protocol=name,
                failed_ranks=",".join(str(r) for r in sorted(failed_ranks)),
                ranks_rolled_back=result.stats.ranks_rolled_back,
                rolled_back_pct=100.0 * result.stats.rolled_back_fraction,
                replayed_messages=result.metric("protocol.replayed_messages", 0),
                suppressed_orphans=result.metric("protocol.suppressed_orphans", 0),
                logged_bytes=result.metric("protocol.logged_bytes", 0),
                recovery_time_s=result.stats.recovery_time,
                results_match_reference=result.rank_results == reference.rank_results,
                send_sequences_match=not mismatches,
            )
        )
    return rows

