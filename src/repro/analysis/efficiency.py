"""Efficiency-vs-MTBF experiment: Monte Carlo fault campaigns, per protocol.

The paper's containment argument is ultimately an *efficiency* claim: when
failures keep striking, a protocol that rolls back only the failed
process's cluster (HydEE) wastes less already-done work than one that rolls
back every process (coordinated checkpointing), while full message logging
bounds the rollback to the failed processes alone.  One hand-written
failure does not measure that -- the claim is about the expectation over
many failure scenarios.

This harness sweeps the per-rank MTBF of a seeded exponential
:class:`~repro.faults.spec.FaultModelSpec` and, for each (protocol, MTBF)
point, fans ``replicas`` Monte Carlo replicas through the campaign runner
(:mod:`repro.faults.montecarlo`).  Reported per point:

* *wasted work* -- mean re-executed compute seconds: the replicas' mean
  ``sim.total_compute_time`` minus the protocol's own failure-free
  baseline (containment in its purest form);
* *efficiency* -- failure-free makespan / mean failed makespan;
* mean recovery time, failures injected, ranks rolled back, and the
  completed-replica count (a replica that does not complete is reported,
  not silently dropped; the ``efficiency-mtbf`` entry checks that every
  replica completes).

The MTBF axis is expressed in *multiples of the reference makespan* (a
protocol-free run of the same workload), so the sweep transfers across
workload sizes; the same absolute ``mtbf_s``/``horizon_s`` values go into
every protocol's fault model, which makes replica ``i`` draw the *same
failure trace* for every protocol -- a paired comparison.

Rows follow the :data:`EFFICIENCY` schema and can be rebuilt
from any store with ``repro-campaign query STORE --table efficiency``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.runner import run_campaign
from repro.campaign.store import ResultsStore
from repro.errors import ConfigurationError
from repro.faults.montecarlo import aggregate_metrics, run_montecarlo
from repro.faults.spec import FaultModelSpec
from repro.results.query import ResultSet
from repro.results.run import RunResult
from repro.results.tables import Column, Row, TableSchema
from repro.scenarios.spec import ClusteringSpec, ProtocolSpec, ScenarioSpec, WorkloadSpec

EXPERIMENT_TAG = "efficiency-mtbf"

#: protocols with a cluster structure (get the block clustering).
_CLUSTERED_PROTOCOLS = ("hydee", "hydee-log-all", "hybrid-event-logging")


# ---------------------------------------------------------------------- specs
def _protocol_spec(name: str, checkpoint_interval: int, num_clusters: int) -> ProtocolSpec:
    if name in ("none", "native"):
        return ProtocolSpec(name=name)
    options = {
        "checkpoint_interval": checkpoint_interval,
        "checkpoint_size_bytes": 64 * 1024,
    }
    if name in _CLUSTERED_PROTOCOLS:
        return ProtocolSpec(
            name=name,
            options=options,
            clustering=ClusteringSpec(method="block", num_clusters=num_clusters),
        )
    return ProtocolSpec(name=name, options=options)


def reference_spec(
    nprocs: int = 16,
    iterations: int = 6,
    workload_kind: str = "stencil2d",
) -> ScenarioSpec:
    """The protocol-free run whose makespan calibrates the MTBF axis."""
    return ScenarioSpec(
        name=f"efficiency:reference:np{nprocs}",
        workload=WorkloadSpec(kind=workload_kind, nprocs=nprocs, iterations=iterations),
        protocol=ProtocolSpec(name="none"),
        tags={"experiment": EXPERIMENT_TAG, "role": "reference",
              "analysis": "montecarlo-replica"},
    )


def baseline_spec(
    protocol: str,
    nprocs: int = 16,
    iterations: int = 6,
    workload_kind: str = "stencil2d",
    checkpoint_interval: int = 1,
    num_clusters: int = 4,
) -> ScenarioSpec:
    """One protocol's failure-free run (its own wasted-work zero point)."""
    return ScenarioSpec(
        name=f"efficiency:{protocol}:np{nprocs}:baseline",
        workload=WorkloadSpec(kind=workload_kind, nprocs=nprocs, iterations=iterations),
        protocol=_protocol_spec(protocol, checkpoint_interval, num_clusters),
        tags={"experiment": EXPERIMENT_TAG, "role": "baseline",
              "protocol": protocol, "analysis": "montecarlo-replica"},
    )


def montecarlo_base_spec(
    protocol: str,
    mtbf_s: float,
    horizon_s: float,
    nprocs: int = 16,
    iterations: int = 6,
    workload_kind: str = "stencil2d",
    checkpoint_interval: int = 1,
    num_clusters: int = 4,
    seed: int = 0,
) -> ScenarioSpec:
    """The base scenario one Monte Carlo point expands into replicas."""
    return ScenarioSpec(
        name=f"efficiency:{protocol}:np{nprocs}:mtbf{mtbf_s:g}",
        workload=WorkloadSpec(kind=workload_kind, nprocs=nprocs, iterations=iterations),
        protocol=_protocol_spec(protocol, checkpoint_interval, num_clusters),
        fault_model=FaultModelSpec(
            distribution="exponential",
            params={"mtbf_s": mtbf_s},
            scope="rank",
            horizon_s=horizon_s,
            seed=seed,
        ),
        # A drawn trace can end a replica in a deadlock instead of a clean
        # finish; record the status, do not tear the campaign down.
        config={"raise_on_incomplete": False},
        tags={"experiment": EXPERIMENT_TAG, "role": "replica",
              "protocol": protocol, "mtbf_s": mtbf_s},
    )


# ----------------------------------------------------------------------- rows
def rows_from_resultset(resultset: ResultSet) -> List[Row]:
    """Aggregate the replica/baseline records of a store into table rows."""
    resultset = resultset.where(**{"tags.experiment": EXPERIMENT_TAG})
    baselines: Dict[Tuple[str, int], RunResult] = {}
    for run in resultset.where(**{"tags.role": "baseline"}):
        key = (str(run.field("tags.protocol")), int(run.field("nprocs")))
        if key in baselines:
            raise ConfigurationError(
                f"efficiency campaign has several baselines for {key}; query "
                "a store holding one sweep (filter with --where)"
            )
        if not run.completed:
            raise ConfigurationError(
                f"efficiency baseline for {key} did not complete: "
                f"status {run.status!r}"
            )
        baselines[key] = run

    rows: List[Row] = []
    groups = resultset.where(**{"tags.role": "replica"}).group_by(
        "tags.protocol", "workload.nprocs", "tags.mtbf_s"
    )
    for (protocol, nprocs, mtbf_s), replicas in groups.items():
        baseline = baselines.get((str(protocol), int(nprocs)))
        if baseline is None:
            raise ConfigurationError(
                f"efficiency campaign for {protocol} @ np={nprocs} has replica "
                "records but no failure-free baseline record"
            )
        campaigns = {run.field("tags.mc_base") for run in replicas}
        if len(campaigns) > 1:
            # Two sweeps (e.g. different --seed) share (protocol, mtbf)
            # coordinates; pooling their replicas would report statistics no
            # single campaign produced.
            raise ConfigurationError(
                f"efficiency point {protocol} @ mtbf={mtbf_s:g}s mixes replicas "
                f"of {len(campaigns)} different Monte Carlo campaigns; query a "
                "store holding one sweep (filter with --where)"
            )
        agg = aggregate_metrics(list(replicas))
        completed = agg.get("faults.completed_replicas")
        if not completed:
            raise ConfigurationError(
                f"efficiency point {protocol} @ mtbf={mtbf_s:g}s has no "
                "completed replicas; nothing to aggregate"
            )
        free_makespan = baseline.metric("sim.makespan")
        free_compute = baseline.metric("sim.total_compute_time")
        mean_makespan = agg.get("faults.sim.makespan.mean")
        rows.append(
            EFFICIENCY.row(
                protocol=str(protocol),
                nprocs=int(nprocs),
                mtbf_s=float(mtbf_s),
                replicas=agg.get("faults.replicas"),
                completed_replicas=completed,
                free_makespan_s=free_makespan,
                failed_makespan_s=mean_makespan,
                failed_makespan_ci95_s=agg.get("faults.sim.makespan.ci95"),
                efficiency=free_makespan / mean_makespan,
                wasted_work_s=agg.get("faults.sim.total_compute_time.mean")
                - free_compute,
                recovery_s=agg.get("faults.sim.recovery_time.mean"),
                failures_mean=agg.get("faults.sim.failures_injected.mean"),
                ranks_rolled_back_mean=agg.get("faults.sim.ranks_rolled_back.mean"),
            )
        )
    rows.sort(key=lambda row: (row.protocol, row.nprocs, row.mtbf_s))
    return rows


#: Monte Carlo efficiency of one protocol at one MTBF point.
EFFICIENCY = TableSchema(
    "efficiency",
    columns=(
        Column("protocol", "str"),
        Column("nprocs", "int"),
        Column("mtbf_s", "float", units="s", scale=1e3, format=".3f",
               header="mtbf_ms"),
        Column("replicas", "int"),
        Column("completed_replicas", "int", header="ok"),
        Column("free_makespan_s", "float", units="s", scale=1e3,
               format=".3f", header="free_ms"),
        Column("failed_makespan_s", "float", units="s", scale=1e3,
               format=".3f", header="failed_ms"),
        Column("failed_makespan_ci95_s", "float", units="s", scale=1e3,
               format=".3f", header="ci95_ms"),
        Column("efficiency", "float", format=".3f"),
        Column("wasted_work_s", "float", units="s", scale=1e6,
               format=".2f", header="wasted_us"),
        Column("recovery_s", "float", units="s", scale=1e3,
               format=".3f", header="recovery_ms"),
        Column("failures_mean", "float", format=".2f", header="failures"),
        Column("ranks_rolled_back_mean", "float", format=".2f",
               header="rolled_back"),
    ),
    title="Efficiency vs MTBF: Monte Carlo fault campaigns "
          "(wasted work and recovery, mean over replicas)",
    rows=rows_from_resultset,
)


# ----------------------------------------------------------------- experiment
def run_efficiency_experiment(
    nprocs: int = 16,
    iterations: int = 6,
    workload_kind: str = "stencil2d",
    protocols: Sequence[str] = ("hydee", "coordinated"),
    mtbf_factors: Sequence[float] = (4.0, 8.0, 16.0),
    horizon_factor: float = 2.0,
    replicas: int = 20,
    checkpoint_interval: int = 1,
    num_clusters: int = 4,
    seed: int = 0,
    workers: int = 1,
    store: Optional[ResultsStore] = None,
) -> List[Row]:
    """Efficiency vs MTBF under Monte Carlo fault campaigns.

    For each protocol and each per-rank MTBF draws ``replicas`` seeded
    failure traces and reports mean wasted work (re-executed compute vs the
    protocol's own failure-free baseline), efficiency, recovery time and
    rollback counts.  The containment claim predicts the wasted-work
    ordering hydee < coordinated at every failure rate: rolling back one
    cluster beats rolling back the world.  (``message-logging`` can join
    the sweep at sparser MTBF factors; under the multi-failure traces of
    the default densest point every replica of that baseline deadlocks,
    which the aggregation reports as an error instead of a row.)

    ``mtbf_factors`` are multiples of the reference makespan (a
    protocol-free run of the workload); the failure horizon is
    ``horizon_factor`` times that makespan.  Everything runs through the
    campaign runner: replicas fan out over ``workers`` and cache in
    ``store`` individually, so re-running an enlarged sweep only executes
    the new points.
    """
    if not mtbf_factors:
        raise ConfigurationError("efficiency experiment needs at least one MTBF factor")
    if store is None:
        store = ResultsStore()  # in-memory: rows are aggregated from records
    reference = reference_spec(nprocs, iterations, workload_kind)
    ref_outcome = run_campaign([reference], workers=1, store=store)
    ref_run = RunResult.from_record(ref_outcome.records[0])
    ref_makespan = ref_run.metric("sim.makespan")
    if not ref_run.completed or not ref_makespan:
        raise ConfigurationError(
            f"efficiency reference run did not complete (status "
            f"{ref_run.status!r}); cannot calibrate the MTBF axis"
        )
    horizon_s = horizon_factor * ref_makespan

    baselines = [
        baseline_spec(protocol, nprocs, iterations, workload_kind,
                      checkpoint_interval, num_clusters)
        for protocol in protocols
    ]
    run_campaign(baselines, workers=workers, store=store)

    for protocol in protocols:
        for factor in mtbf_factors:
            base = montecarlo_base_spec(
                protocol, float(factor) * ref_makespan, horizon_s,
                nprocs, iterations, workload_kind,
                checkpoint_interval, num_clusters, seed,
            )
            run_montecarlo(base, replicas=replicas, workers=workers, store=store)
    return rows_from_resultset(ResultSet.from_store(store))


# ------------------------------------------------------------------ reporting
def wasted_work_by_protocol(rows: Sequence[Row]) -> Dict[float, Dict[str, float]]:
    """``{mtbf_s: {protocol: wasted_work_s}}`` for ordering checks."""
    out: Dict[float, Dict[str, float]] = {}
    for row in rows:
        out.setdefault(row.mtbf_s, {})[row.protocol] = row.wasted_work_s
    return out


def containment_holds(rows: Sequence[Row]) -> bool:
    """The paper's qualitative ordering: HydEE wastes less than coordinated
    at every MTBF point (where both protocols are present)."""
    for point in wasted_work_by_protocol(rows).values():
        if "hydee" in point and "coordinated" in point:
            if not point["hydee"] < point["coordinated"]:
                return False
    return True


def render_efficiency(rows: Sequence[Row]) -> str:
    """The table, the wasted-work ordering per MTBF point, and the verdict."""
    lines = [EFFICIENCY.render_text(rows), ""]
    for mtbf, by_protocol in sorted(wasted_work_by_protocol(rows).items()):
        ordered = sorted(by_protocol.items(), key=lambda item: item[1])
        lines.append(f"mtbf {mtbf * 1e3:.3f} ms: wasted work "
                     + " < ".join(f"{name} ({value * 1e6:.1f} us)"
                                  for name, value in ordered))
    verdict = "holds" if containment_holds(rows) else "DOES NOT HOLD"
    lines += ["", f"containment ordering (hydee < coordinated wasted work): {verdict}"]
    return "\n".join(lines)
