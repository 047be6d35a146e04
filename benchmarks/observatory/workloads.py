"""The six workloads: input generation, timed body, correctness checks.

Every workload is a closed loop with one client: ``setup`` generates the
inputs from the seed and computes the reference outputs the checks compare
against, ``prepare`` (untimed) resets per-repeat state, ``body`` is the
timed operation a user waits on, ``check`` verifies one body's outputs and
counts operations.  The program under test only ever receives generated
specs; the seed never reaches it directly.

Why each workload exists is recorded on the workload object (and repeated
in ``BENCHMARK.json`` and README.md).
"""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import shutil
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign import cli as campaign_cli
from repro.campaign.runner import run_campaign
from repro.campaign.store import ResultsStore
from repro.faults.distributions import derive_rng
from repro.faults.montecarlo import replica_specs, run_montecarlo
from repro.faults.spec import FaultModelSpec
from repro.faults.trace import generate_trace
from repro.results.metrics import MetricSet
from repro.scenarios.build import build
from repro.scenarios.spec import (
    ClusteringSpec,
    NetworkSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

NPROCS = 16
CLUSTERS = 4
CHECKPOINT_BYTES = 65536
#: a hybrid makespan may differ from its exact-DES reference by this much.
#: Failure-free replicas are analytically exact.  A struck replica re-enters
#: fast-forward after its guard window with an error of a few restart
#: delays, which is relative to the run length: the worst seen over 131
#: seeds is 0.46 % (320 iterations) and 0.72 % (40 iterations).
FREE_MAKESPAN_REL_TOL = 1.0e-5
STRUCK_MAKESPAN_REL_TOL = 2.0e-2
#: columns of the synthetic store's pivot table.
PIVOT_COLUMNS = 8


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Problem sizes: fixed for the committed benchmark, tiny for the smoke test."""

    steady_iterations: int
    alltoall_iterations: int
    ckpt_iterations: int
    sparse_iterations: int
    sparse_replicas: int
    dense_iterations: int
    dense_replicas: int
    store_records: int
    store_new_specs: int


FULL = Sizes(
    steady_iterations=256,
    alltoall_iterations=40,
    ckpt_iterations=480,
    sparse_iterations=320,
    sparse_replicas=10,
    dense_iterations=40,
    dense_replicas=6,
    store_records=1000,
    store_new_specs=32,
)
SMOKE = Sizes(
    steady_iterations=16,
    alltoall_iterations=8,
    ckpt_iterations=16,
    sparse_iterations=32,
    sparse_replicas=2,
    dense_iterations=20,
    dense_replicas=2,
    store_records=48,
    store_new_specs=4,
)


@dataclasses.dataclass
class Verdict:
    """Outcome of checking one body: operations, accuracy, counts, digest."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    makespan_rel_err: float = 0.0
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    sim_digest: str = ""

    def expect(self, ok: bool, what: str) -> None:
        """Count one correctness check as an operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


# ------------------------------------------------------------------ helpers
def hydee_spec(
    name: str,
    kind: str,
    iterations: int,
    checkpoint_interval: int,
    protocol: str = "hydee",
    topology: Optional[TopologySpec] = None,
) -> ScenarioSpec:
    clustering = (
        ClusteringSpec(method="block", num_clusters=CLUSTERS)
        if protocol == "hydee"
        else ClusteringSpec()
    )
    return ScenarioSpec(
        name=name,
        workload=WorkloadSpec(kind=kind, nprocs=NPROCS, iterations=iterations),
        protocol=ProtocolSpec(
            name=protocol,
            clustering=clustering,
            options={
                "checkpoint_interval": checkpoint_interval,
                "checkpoint_size_bytes": CHECKPOINT_BYTES,
            },
        ),
        network=NetworkSpec(topology=topology),
    )


def _tree(metrics: Any) -> Dict[str, Any]:
    return metrics.to_tree() if isinstance(metrics, MetricSet) else dict(metrics or {})


def _get(tree: Dict[str, Any], path: str, default: Any = 0) -> Any:
    node: Any = tree
    for segment in path.split("."):
        if not isinstance(node, dict) or segment not in node:
            return default
        node = node[segment]
    return node


def _digest(payload: Any) -> str:
    """SHA-256 over the canonical form of a body's simulated statistics."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference) if reference else abs(value)


#: per-layer counts read from the public metric tree: name -> metric path.
_TREE_COUNTS = {
    "engine.events": "sim.events_processed",
    "process.app_messages": "sim.app_messages",
    "channel.app_bytes": "sim.app_bytes",
    "protocol.logged_messages": "sim.logged_messages",
    "protocol.piggyback_bytes": "protocol.piggyback_bytes",
    "protocol.control_messages": "sim.control_messages",
    "message_log.logged_bytes": "sim.logged_bytes",
    "checkpoint.writes": "sim.checkpoints_taken",
    "checkpoint.bytes": "sim.checkpoint_bytes",
    "recovery.sessions": "protocol.recoveries",
    "recovery.ranks_rolled_back": "sim.ranks_rolled_back",
    "recovery.replayed_messages": "sim.replayed_messages",
    "recovery.suppressed_orphans": "protocol.suppressed_orphans",
    "hybrid.des_iterations": "sim.hybrid.des_iterations",
    "hybrid.ff_iterations": "sim.hybrid.ff_iterations",
    "hybrid.batched_iterations": "sim.hybrid.batched_iterations",
    "hybrid.epochs": "sim.hybrid.epochs",
    "hybrid.fallbacks": "sim.hybrid.fallback",
    "hybrid.calibration_hits": "sim.hybrid.calibration_cached",
    "faults.failures_injected": "sim.failures_injected",
}
#: counts taken from the campaign / store layers' return values instead.
_OUTCOME_COUNTS = (
    "topology.reservations",
    "hybrid.ff_ratio",
    "faults.error_replicas",
    "scenarios.builds",
    "campaign.executed",
    "campaign.cache_hits",
    "campaign.cache_hit_ratio",
    "store.saves",
    "store.records",
    "store.bytes_written",
    "results.records_scanned",
)
COUNT_NAMES = tuple(_TREE_COUNTS) + _OUTCOME_COUNTS

Run = Tuple[str, Dict[str, Any]]  # (status, metric tree) of one scenario run


def _simulation_verdict(runs: List[Run], executed: int, cache_hits: int = 0) -> Verdict:
    """Checks and counts shared by every workload that runs scenarios.

    A run whose status is not ``completed`` is a failed operation.
    """
    verdict = Verdict(counts=dict.fromkeys(COUNT_NAMES, 0))
    counts = verdict.counts
    for status, tree in runs:
        verdict.expect(status == "completed", f"run ended {status}")
        if status.startswith("error:"):
            counts["faults.error_replicas"] += 1
        for name, path in _TREE_COUNTS.items():
            counts[name] += _get(tree, path)
        for tier in _get(tree, "links.tiers", {}).values():
            counts["topology.reservations"] += tier.get("messages", 0)
    determinants = sum(_get(tree, "protocol.determinants_logged") for _, tree in runs)
    verdict.expect(determinants == 0, "determinants were logged (event logging)")
    advanced = counts["hybrid.ff_iterations"] + counts["hybrid.des_iterations"]
    counts["hybrid.ff_ratio"] = counts["hybrid.ff_iterations"] / advanced if advanced else 0.0
    counts["scenarios.builds"] = executed
    counts["campaign.executed"] = executed
    counts["campaign.cache_hits"] = cache_hits
    total = executed + cache_hits
    counts["campaign.cache_hit_ratio"] = cache_hits / total if total else 0.0
    verdict.sim_digest = _digest(runs)
    return verdict


class Workload:
    """What every workload offers the harness: name, why, setup/prepare/body/check."""

    name: str
    why: str
    work_unit = "rank-iterations"

    def prepare(self, ctx: Dict[str, Any]) -> None:
        """Untimed reset before each repeat of the body (nothing by default)."""


# ---------------------------------------------------------- exact workloads
class ExactWorkload(Workload):
    """One exact-DES replica: ``build(spec).run()``."""

    def __init__(self, name: str, why: str, kind: str, size_field: str,
                 checkpoint_interval: int, messages_per_iteration: int,
                 topology: Optional[TopologySpec] = None) -> None:
        self.name = name
        self.why = why
        self._kind = kind
        self._size_field = size_field
        self._interval = checkpoint_interval
        self._messages_per_iteration = messages_per_iteration
        self._topology = topology

    def setup(self, seed: int, sizes: Sizes, workdir: str) -> Dict[str, Any]:
        # No stochastic input: the seed does not reach an exact workload.
        iterations = getattr(sizes, self._size_field)
        spec = hydee_spec(f"obs-{self.name}", self._kind, iterations, self._interval,
                          topology=self._topology)
        reference = build(spec).run()
        return {
            "spec": spec,
            "work_count": NPROCS * iterations,
            "iterations": iterations,
            "reference_makespan": reference.makespan,
        }

    def body(self, ctx: Dict[str, Any]) -> Any:
        return build(ctx["spec"]).run()

    def check(self, ctx: Dict[str, Any], outcome: Any) -> Verdict:
        tree = _tree(outcome.metrics)
        verdict = _simulation_verdict([(outcome.status, tree)], executed=1)
        iterations = ctx["iterations"]
        verdict.expect(
            _get(tree, "sim.app_messages") == self._messages_per_iteration * iterations,
            "application message count differs from the closed form",
        )
        verdict.expect(
            _get(tree, "sim.checkpoints_taken") == NPROCS * (iterations // self._interval),
            "checkpoint count differs from the closed form",
        )
        verdict.expect(_get(tree, "sim.ranks_rolled_back") == 0, "failure-free run rolled back")
        # Exact runs of one spec must agree bit for bit with the set-up's run.
        verdict.makespan_rel_err = _rel_err(outcome.makespan, ctx["reference_makespan"])
        verdict.expect(verdict.makespan_rel_err == 0.0, "exact makespan is not reproducible")
        return verdict


# ---------------------------------------------------- Monte Carlo workloads
#: counters a hybrid replica must share bit for bit with its exact run
#: (``protocol.gc_reclaimed_bytes`` is the documented exception).
_VOLUME_COUNTERS = (
    "sim.app_messages",
    "sim.app_bytes",
    "sim.logged_messages",
    "sim.logged_bytes",
    "sim.checkpoints_taken",
    "sim.checkpoint_bytes",
    "sim.ranks_rolled_back",
    "sim.replayed_messages",
    "sim.failures_injected",
    "protocol.piggyback_bytes",
    "protocol.suppressed_orphans",
)


def _conditioned_fault_model(
    seed: int, replicas: int, mtbf_s: float, horizon_s: float,
    accept: Callable[[List[List[float]]], bool],
) -> FaultModelSpec:
    """A seeded exponential fault model whose draw satisfies ``accept``.

    ``accept`` sees the strike times of every replica (generated ahead of
    simulation, nothing is run).  A Poisson process conditioned on its count
    keeps uniform strike times and victims, so candidate fault seeds derived
    from ``seed`` are tried until the draw holds the expected amount of work.
    A Monte Carlo body then costs the same on every seed; when and whom the
    failures strike still varies.
    ``max_failures=1``: a replica fails at most once, which keeps strikes out
    of active recovery sessions -- multi-failure replicas end in ``error:``
    records on some draws (ROADMAP correctness item b) and a benchmark
    workload must not fail operations.
    """
    for attempt in range(4096):
        fault = FaultModelSpec(
            distribution="exponential",
            seed=abs(seed) * 4096 + attempt,
            params={"mtbf_s": mtbf_s},
            horizon_s=horizon_s,
            max_failures=1,
        )
        strikes = [
            generate_trace(dataclasses.replace(fault, replica=index), NPROCS).failure_times
            for index in range(replicas)
        ]
        if accept(strikes):
            return fault
    raise RuntimeError(f"no fault seed near {seed} draws an acceptable failure trace")


def _exact_reference(spec: ScenarioSpec, replicas: int, indexes: List[int]) -> Dict[int, Run]:
    """Exact-DES runs of the chosen replicas: the accuracy reference."""
    exact = replica_specs(spec, replicas, execution="exact")
    reference = {}
    for index in indexes:
        result = build(exact[index]).run()
        reference[index] = (result.status, _tree(result.metrics))
    return reference


def _replica_runs(result: Any) -> List[Run]:
    return [(run.status, _tree(run.metrics)) for run in result.runs]


def _check_against_reference(
    verdict: Verdict, runs: List[Run], reference: Dict[int, Run], label: str
) -> None:
    for index, (status, exact) in sorted(reference.items()):
        hybrid = runs[index][1]
        verdict.expect(status == "completed", f"{label} exact reference ended {status}")
        err = _rel_err(_get(hybrid, "sim.makespan"), _get(exact, "sim.makespan"))
        verdict.makespan_rel_err = max(verdict.makespan_rel_err, err)
        struck = _get(exact, "sim.failures_injected") > 0
        verdict.expect(err <= (STRUCK_MAKESPAN_REL_TOL if struck else FREE_MAKESPAN_REL_TOL),
                       f"{label} replica {index}: makespan off by {err:.3g}")
        differing = [p for p in _VOLUME_COUNTERS if _get(hybrid, p) != _get(exact, p)]
        verdict.expect(not differing,
                       f"{label} replica {index}: counters differ from exact: {differing}")


class SparseMonteCarlo(Workload):
    """A hybrid Monte Carlo sweep in which failures are rare."""

    name = "mc_hybrid_sparse"
    why = ("run_montecarlo, 16-rank stencil2d, half the replicas fail once: fast-forward and the "
           "calibration cache carry the run; guard-window DES and recovery are a small share.")
    #: per-rank MTBF as a multiple of nprocs x failure-free makespan.
    MTBF_FACTOR = 1.5

    def setup(self, seed: int, sizes: Sizes, workdir: str) -> Dict[str, Any]:
        replicas = sizes.sparse_replicas
        base = hydee_spec(f"obs-{self.name}", "stencil2d", sizes.sparse_iterations, 8)
        free = build(base).run()
        makespan = free.makespan
        fault = _conditioned_fault_model(
            seed, replicas, self.MTBF_FACTOR * NPROCS * makespan, makespan,
            lambda strikes: sum(map(len, strikes)) == replicas // 2,
        )
        spec = dataclasses.replace(base, fault_model=fault)
        struck = [
            len(generate_trace(dataclasses.replace(fault, replica=index), NPROCS))
            for index in range(replicas)
        ]
        # Accuracy reference: the first struck replica run exactly, and for
        # the first failure-free replica the failure-free exact run above.
        reference = _exact_reference(spec, replicas, [struck.index(1)])
        reference[struck.index(0)] = (free.status, _tree(free.metrics))
        return {
            "spec": spec,
            "replicas": replicas,
            "failures": sum(struck),
            "work_count": NPROCS * sizes.sparse_iterations * replicas,
            "reference": reference,
        }

    def body(self, ctx: Dict[str, Any]) -> Any:
        # The prewarm calibration is part of what the user waits on.
        return run_montecarlo(ctx["spec"], replicas=ctx["replicas"], execution="hybrid")

    def check(self, ctx: Dict[str, Any], outcome: Any) -> Verdict:
        runs = _replica_runs(outcome)
        verdict = _simulation_verdict(runs, outcome.executed, outcome.cache_hits)
        counts = verdict.counts
        verdict.expect(outcome.completed_replicas == ctx["replicas"], "not every replica completed")
        verdict.expect(counts["hybrid.fallbacks"] == 0, "a replica fell back to exact execution")
        verdict.expect(counts["faults.failures_injected"] == ctx["failures"],
                       "injected failures differ from the generated traces")
        verdict.expect(counts["recovery.ranks_rolled_back"] == CLUSTERS * ctx["failures"],
                       "HydEE rolled back more than the failed cluster")
        _check_against_reference(verdict, runs, ctx["reference"], "hydee")
        return verdict


class DenseMonteCarlo(Workload):
    """Hybrid Monte Carlo sweeps in which every replica fails: HydEE, then coordinated."""

    name = "mc_dense_faults"
    why = ("Every replica of a short run fails once, HydEE then coordinated: guard-window DES, "
           "rollback, log replay, orphan suppression and checkpoint restore dominate fast-forward.")
    PROTOCOLS = ("hydee", "coordinated")
    #: expected failures per replica before the max_failures=1 cap.
    FAILURE_RATE = 4.0
    #: accepted mean strike time, as a share of the horizon (see _accept).
    MEAN_STRIKE, STRIKE_BAND = 0.23, 0.04
    #: ranks one failure rolls back: the failed cluster vs everyone.
    ROLLED_BACK = {"hydee": NPROCS // CLUSTERS, "coordinated": NPROCS}

    def _accept(self, strikes: List[List[float]], horizon_s: float) -> bool:
        """Every replica fails, and on average as early as the process's mean.

        A replica costs 16-50 ms depending on how late it is struck (the run
        up to the strike fast-forwards iteration by iteration), so the mean
        strike time is held near its expectation (0.23 of the horizon for a
        first arrival at rate 4, given that it falls inside the horizon).
        """
        if any(len(times) != 1 for times in strikes):
            return False
        mean = sum(times[0] for times in strikes) / len(strikes) / horizon_s
        return abs(mean - self.MEAN_STRIKE) <= self.STRIKE_BAND

    def setup(self, seed: int, sizes: Sizes, workdir: str) -> Dict[str, Any]:
        replicas = sizes.dense_replicas
        specs, references = {}, {}
        for protocol in self.PROTOCOLS:
            base = hydee_spec(f"obs-{self.name}-{protocol}", "stencil2d",
                              sizes.dense_iterations, 4, protocol=protocol)
            makespan = build(base).run().makespan
            fault = _conditioned_fault_model(
                seed, replicas, NPROCS * makespan / self.FAILURE_RATE, makespan,
                lambda strikes, horizon=makespan: self._accept(strikes, horizon),
            )
            specs[protocol] = dataclasses.replace(base, fault_model=fault)
            references[protocol] = _exact_reference(specs[protocol], replicas, [0])
        return {
            "specs": specs,
            "replicas": replicas,
            "work_count": NPROCS * sizes.dense_iterations * replicas * len(self.PROTOCOLS),
            "references": references,
        }

    def body(self, ctx: Dict[str, Any]) -> Any:
        return {
            protocol: run_montecarlo(ctx["specs"][protocol], replicas=ctx["replicas"],
                                     execution="hybrid")
            for protocol in self.PROTOCOLS
        }

    def check(self, ctx: Dict[str, Any], outcome: Any) -> Verdict:
        runs_by_protocol = {p: _replica_runs(outcome[p]) for p in self.PROTOCOLS}
        verdict = _simulation_verdict(
            [run for p in self.PROTOCOLS for run in runs_by_protocol[p]],
            executed=sum(outcome[p].executed for p in self.PROTOCOLS),
            cache_hits=sum(outcome[p].cache_hits for p in self.PROTOCOLS),
        )
        for protocol in self.PROTOCOLS:
            runs = runs_by_protocol[protocol]
            failures = sum(_get(tree, "sim.failures_injected") for _, tree in runs)
            rolled_back = sum(_get(tree, "sim.ranks_rolled_back") for _, tree in runs)
            verdict.expect(failures == ctx["replicas"], f"{protocol}: not one failure per replica")
            verdict.expect(rolled_back == self.ROLLED_BACK[protocol] * failures,
                           f"{protocol}: rolled back {rolled_back} ranks for {failures} failures")
            _check_against_reference(verdict, runs, ctx["references"][protocol], protocol)
        return verdict


# ------------------------------------------------------------ store workload
class StoreQuery(Workload):
    """Campaign runner, results-store write path and query path; almost no simulation."""

    name = "store_query_1k"
    why = ("run_campaign of 32 new tiny specs into a 1000-record store (one merge-and-rewrite "
           "save), again as cache hits, then a CLI pivot query: layers every simulation bypasses.")
    work_unit = "records"
    QUERY = ("--where", "tags.family=synthetic", "--pivot", "tags.row", "tags.col",
             "sim.makespan", "--format", "json")

    def setup(self, seed: int, sizes: Sizes, workdir: str) -> Dict[str, Any]:
        seeds = [
            ScenarioSpec(name=f"obs-seed-{i}",
                         workload=WorkloadSpec(kind="ring", nprocs=4, iterations=i + 1))
            for i in range(12)
        ]
        real = run_campaign(seeds).records
        rng = derive_rng("benchmarks.observatory.store", seed)
        pristine = os.path.join(workdir, "pristine.json")
        if os.path.exists(pristine):
            os.remove(pristine)
        store = ResultsStore(pristine)
        expected: Dict[str, Dict[str, float]] = {}
        for i in range(sizes.store_records):
            record = copy.deepcopy(real[i % len(real)])
            row, col = f"r{i // PIVOT_COLUMNS:04d}", f"c{i % PIVOT_COLUMNS}"
            value = rng.randrange(1, 10**9) * 1.0e-9
            record["name"] = f"synthetic-{i}"
            record["spec"]["name"] = record["name"]
            record["spec"]["tags"] = {"family": "synthetic", "row": row, "col": col}
            record["result"]["metrics"]["sim"]["makespan"] = value
            record["spec_hash"] = ScenarioSpec.from_dict(record["spec"]).spec_hash()
            store.put(record["spec_hash"], record)
            expected.setdefault(row, {})[col] = value
        store.save()
        fresh = [
            ScenarioSpec(name=f"obs-fresh-{i}",
                         workload=WorkloadSpec(kind="ring", nprocs=4, iterations=2),
                         tags={"family": "fresh", "index": i})
            for i in range(sizes.store_new_specs)
        ]
        return {
            "pristine": pristine,
            "path": os.path.join(workdir, "store.json"),
            "fresh": fresh,
            "records": sizes.store_records + len(fresh),
            "work_count": sizes.store_records + len(fresh),
            "expected": expected,
        }

    def prepare(self, ctx: Dict[str, Any]) -> None:
        shutil.copyfile(ctx["pristine"], ctx["path"])

    def body(self, ctx: Dict[str, Any]) -> Any:
        path = ctx["path"]
        store = ResultsStore(path)
        first = run_campaign(ctx["fresh"], store=store)
        second = run_campaign(ctx["fresh"], store=store)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            exit_code = campaign_cli.main(["query", path, *self.QUERY])
        return {"first": first, "second": second, "exit_code": exit_code,
                "stdout": captured.getvalue()}

    def check(self, ctx: Dict[str, Any], outcome: Any) -> Verdict:
        first, second = outcome["first"], outcome["second"]
        runs = [(r["result"]["status"], r["result"]["metrics"]) for r in first.records]
        verdict = _simulation_verdict(runs, first.executed + second.executed,
                                      first.cache_hits + second.cache_hits)
        fresh = len(ctx["fresh"])
        verdict.expect(first.executed == fresh and first.cache_hits == 0,
                       "first pass did not execute every new spec")
        verdict.expect(second.executed == 0 and second.cache_hits == fresh,
                       "second pass was not served from the store")
        reloaded = len(ResultsStore(ctx["path"]))
        verdict.expect(reloaded == ctx["records"], f"store reloads {reloaded} records")
        verdict.expect(outcome["exit_code"] == 0, "query exited non-zero")
        table = {row.pop("tags.row"): row for row in json.loads(outcome["stdout"] or "[]")}
        verdict.expect(table == ctx["expected"], "pivot differs from the table that was written")
        # Accuracy of this workload: values read back against values written.
        for row, cells in ctx["expected"].items():
            for col, value in cells.items():
                err = _rel_err(table.get(row, {}).get(col, 0.0), value)
                verdict.makespan_rel_err = max(verdict.makespan_rel_err, err)
        counts = verdict.counts
        counts["store.saves"] = sum(1 for pass_ in (first, second) if pass_.executed)
        counts["store.records"] = reloaded
        counts["store.bytes_written"] = os.path.getsize(ctx["path"])
        counts["results.records_scanned"] = reloaded
        verdict.sim_digest = _digest([runs, table])
        return verdict


_HIERARCHICAL = TopologySpec(
    preset="hierarchical",
    params={"ranks_per_node": 2, "nodes_per_cluster": 2, "oversubscription": 8},
)

WORKLOADS = (
    ExactWorkload(
        "exact_steady",
        "One exact replica, stencil2d, checkpoint every 8, flat network: the DES core (engine, "
        "rank processes, channel, protocol hooks) does nearly all the work.",
        kind="stencil2d", size_field="steady_iterations", checkpoint_interval=8,
        messages_per_iteration=48,
    ),
    ExactWorkload(
        "routed_alltoall",
        "One exact replica, ft all-to-all on a hierarchical topology: the only workload where "
        "routing and link contention run, and where collectives and sender-log appends peak.",
        kind="ft", size_field="alltoall_iterations", checkpoint_interval=8,
        messages_per_iteration=NPROCS * (NPROCS - 1), topology=_HIERARCHICAL,
    ),
    ExactWorkload(
        "ckpt_dense",
        "One exact replica, pipeline, checkpoint every iteration: more coordinated checkpoints "
        "than messages, the largest share the snapshot and stable-storage path can reach.",
        kind="pipeline", size_field="ckpt_iterations", checkpoint_interval=1,
        messages_per_iteration=NPROCS - 1,
    ),
    SparseMonteCarlo(),
    DenseMonteCarlo(),
    StoreQuery(),
)
BY_NAME = {workload.name: workload for workload in WORKLOADS}
