"""Monte Carlo fault campaigns: N seeded replicas through the campaign runner.

A Monte Carlo campaign takes one scenario with a
:class:`~repro.faults.spec.FaultModelSpec` and fans out N *replicas*:
copies of the spec that differ only in ``fault_model.replica``.  Because
the replica index is part of the spec (and of every RNG stream key), each
replica

* draws an independent failure trace, byte-identically in any process --
  serial and ``--workers N`` campaigns produce the same records and the
  same store files;
* has its own spec hash, so completed replicas cache individually and a
  re-run with more replicas only executes the new ones.

The simulator is deterministic, so replicas that draw the *same* trace --
above all the empty one, a share ``exp(-horizon * units / mtbf)`` of a
sparse exponential sweep -- are the same simulation: :func:`run_montecarlo`
runs each distinct trace once and gives every replica its own record.

Replicas run the ``montecarlo-replica`` job (the ``simulate`` payload plus
``sim.total_compute_time``, the counter wasted-work analyses need);
:func:`aggregate_metrics` folds their per-replica metric trees into
mean/stddev/CI statistics under the ``faults.`` namespace
(``faults.sim.makespan.mean``, ``faults.sim.recovery_time.ci95``, ...).

Two entry points:

* :func:`run_montecarlo` -- library API: expand, run (optionally fanned
  out over worker processes and cached in a store), aggregate;
* :func:`montecarlo_job` -- the registered ``montecarlo`` campaign job,
  for spec files: one spec tagged ``{"analysis": "montecarlo",
  "replicas": N}`` runs its replicas in-process and stores the aggregate.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.store import ResultsStore
from repro.errors import ConfigurationError
from repro.results.metrics import MetricSet
from repro.results.run import RunResult, make_payload
from repro.scenarios.spec import ScenarioSpec
from repro.simulator.calibration import CalibrationCache, activated

#: metric namespaces folded into ``faults.*`` statistics (link-level trees
#: are per-topology detail, not Monte Carlo observables).
AGGREGATE_NAMESPACES = ("sim", "protocol")

DEFAULT_REPLICAS = 20


# ----------------------------------------------------------------- replicas
def replica_specs(
    base: ScenarioSpec,
    replicas: int,
    analysis: str = "montecarlo-replica",
    execution: Optional[str] = None,
) -> List[ScenarioSpec]:
    """The N replica scenarios of ``base`` (``fault_model.replica`` = 0..N-1).

    Each replica keeps the base tags (so experiment filters keep matching),
    gains ``replica``/``mc_base`` provenance tags, and runs ``analysis``
    (the per-replica job) instead of the base spec's own analysis.

    Replicas default to ``execution="hybrid"`` (fast-forward failure-free
    epochs, see :mod:`repro.simulator.hybrid`) when the base spec left the
    mode at ``"exact"``: Monte Carlo campaigns aggregate makespan/byte
    statistics, which is exactly what the hybrid mode preserves, and each
    replica still falls back to exact execution on its own if calibration
    fails.  Pass ``execution="exact"`` to force full DES everywhere; a base
    spec that sets a mode explicitly keeps it.
    """
    if base.fault_model is None:
        raise ConfigurationError(
            f"scenario {base.name!r} has no fault_model: Monte Carlo replicas "
            "re-draw a stochastic fault model, there is nothing to re-draw"
        )
    if replicas < 1:
        raise ConfigurationError(f"a Monte Carlo campaign needs replicas >= 1, got {replicas}")
    # The campaign identity must not depend on how many replicas were
    # requested or how the campaign was launched (direct call vs the
    # 'montecarlo' job tag): strip both before hashing, or growing a
    # campaign would re-key -- and re-simulate -- every replica.
    base_tags = dict(base.tags)
    base_tags.pop("replicas", None)
    base_tags.pop("analysis", None)
    base_hash = dataclasses.replace(base, tags=base_tags).spec_hash()
    resolved = execution or ("hybrid" if base.execution == "exact" else base.execution)
    specs: List[ScenarioSpec] = []
    for index in range(replicas):
        tags = dict(base.tags)
        tags.pop("replicas", None)
        tags.update({"analysis": analysis, "replica": index, "mc_base": base_hash})
        specs.append(
            dataclasses.replace(
                base,
                name=f"{base.name}#r{index}",
                fault_model=dataclasses.replace(base.fault_model, replica=index),
                execution=resolved,
                tags=tags,
            )
        )
    return specs


# -------------------------------------------------------------- aggregation
def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def aggregate_metrics(runs: Sequence[RunResult]) -> MetricSet:
    """Fold per-replica metric trees into ``faults.*`` statistics.

    Every numeric ``sim.*`` / ``protocol.*`` leaf present in *all* completed
    replicas gains ``.mean``, ``.std`` (sample stddev), ``.ci95`` (normal
    95% half-width), ``.min`` and ``.max`` under ``faults.<path>``.
    Replicas that did not complete are excluded from the statistics but
    counted in ``faults.replicas`` vs ``faults.completed_replicas``.
    """
    metrics = MetricSet()
    completed = [run for run in runs if run.completed]
    metrics.set("faults.replicas", len(runs))
    metrics.set("faults.completed_replicas", len(completed))
    if not completed:
        return metrics

    paths = None
    for run in completed:
        run_paths = {
            path
            for path in run.metrics
            if path.split(".", 1)[0] in AGGREGATE_NAMESPACES
            and _numeric(run.metric(path))
        }
        paths = run_paths if paths is None else (paths & run_paths)
    for path in sorted(paths or ()):
        values = [float(run.metric(path)) for run in completed]
        n = len(values)
        mean = sum(values) / n
        if n > 1:
            std = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
        else:
            std = 0.0
        metrics.set(f"faults.{path}.mean", mean)
        metrics.set(f"faults.{path}.std", std)
        metrics.set(f"faults.{path}.ci95", 1.96 * std / math.sqrt(n))
        metrics.set(f"faults.{path}.min", min(values))
        metrics.set(f"faults.{path}.max", max(values))
    return metrics


@dataclass
class MonteCarloResult:
    """Outcome of :func:`run_montecarlo`: replicas + their aggregate."""

    base: ScenarioSpec
    runs: Tuple[RunResult, ...]
    metrics: MetricSet
    cache_hits: int = 0
    #: simulations actually run (one per distinct trace the store lacked).
    executed: int = 0
    #: replicas whose record is a copy of an equal-trace replica's run.
    shared: int = 0

    @property
    def replicas(self) -> int:
        return len(self.runs)

    @property
    def completed_replicas(self) -> int:
        return sum(1 for run in self.runs if run.completed)

    def metric(self, path: str, default: Any = None) -> Any:
        """Aggregate lookup (``faults.sim.makespan.mean``, ...)."""
        return self.metrics.get(path, default)


def prewarm_calibration(base: ScenarioSpec, cache: CalibrationCache) -> bool:
    """Calibrate the shared hybrid warm-up model for ``base``, once.

    Runs only the DES warm-up of the *failure-free* variant of the scenario
    (same workload, protocol, network, and config -- only the failure
    sources stripped, so it shares the replicas' :meth:`~repro.scenarios.
    spec.ScenarioSpec.calibration_key`) through :meth:`repro.simulator.
    hybrid.HybridDirector.calibrate` and stores the entry in ``cache``.
    Replicas that later find the entry skip their own DES warm-up entirely
    (:meth:`~repro.simulator.hybrid.HybridDirector._cached_calibration`);
    the two-probe check still re-verifies the model against real
    per-message iterations before every batched advance.

    Returns ``True`` when the cache holds a usable entry afterwards.  A
    scenario that cannot calibrate returns ``False`` -- without simulating
    anything when the reason is static (workload not fast-forwardable, too
    few iterations, ...) -- and replicas warm up themselves exactly as
    before: the pre-warm is a pure fast path, never a behaviour change.
    """
    from repro.scenarios.build import build
    from repro.simulator.hybrid import HybridDirector

    key = base.calibration_key()
    if cache.get(key) is not None:
        return True
    free = dataclasses.replace(
        base,
        name=f"{base.name}#calibration",
        failures=(),
        fault_model=None,
        execution="hybrid",
        tags={},
    )
    entry = HybridDirector(build(free)).calibrate()
    if entry is None:
        return False
    cache.put(key, entry)
    return True


def run_montecarlo(
    base: ScenarioSpec,
    replicas: int = DEFAULT_REPLICAS,
    workers: int = 1,
    store: Optional[ResultsStore] = None,
    force: bool = False,
    execution: Optional[str] = None,
) -> MonteCarloResult:
    """Fan N replicas of ``base`` through the campaign runner and aggregate.

    Replicas are embarrassingly parallel (``workers``) and individually
    cached by spec hash (``store``); the aggregate is recomputed from the
    records, so a fully-cached campaign aggregates without simulating.
    ``execution`` pins the replica execution mode (see
    :func:`replica_specs`, which defaults replicas to ``"hybrid"``).

    Replicas that drew the same failure trace are one simulation: it runs
    once (``executed``) -- not at all when the store holds an equal-trace
    replica -- and the others receive its result under their own name, spec
    and spec hash (``shared``), so the store and the aggregate still hold
    one record per replica.

    Hybrid campaigns share one warm-up calibration: when at least one
    replica is going to execute, the failure-free variant of ``base`` is
    calibrated *before* the fan-out (:func:`prewarm_calibration`) into a
    fresh in-memory cache that is active for the fan-out; every replica --
    in this process or in a forked worker -- reads that one value, keeping
    serial and ``--workers N`` campaigns byte-identical while skipping N-1
    redundant DES warm-ups.
    """
    from repro.campaign.runner import run_campaign
    from repro.faults.trace import generate_trace
    from repro.scenarios.build import build_topology

    specs = replica_specs(base, replicas, execution=execution)
    nprocs = base.workload.nprocs
    topology = build_topology(base.network.topology, nprocs)

    def same_trace(spec: ScenarioSpec) -> Tuple[Any, ...]:
        # What a replica simulates is its base scenario, its execution mode
        # and the trace it drew; the draw is a pure function of the spec.
        trace = generate_trace(spec.fault_model, nprocs, topology)
        return (
            spec.tags["mc_base"],
            spec.execution,
            tuple((entry.time, entry.ranks) for entry in trace),
        )

    cache = None
    if specs[0].execution == "hybrid" and (
        force or store is None or any(spec.spec_hash() not in store for spec in specs)
    ):
        cache = CalibrationCache()
        if not prewarm_calibration(specs[0], cache):
            cache = None
    with activated(cache) if cache is not None else nullcontext():
        outcome = run_campaign(
            specs, workers=workers, store=store, force=force, same_run=same_trace
        )
    runs = tuple(RunResult.from_record(record) for record in outcome.records)
    return MonteCarloResult(
        base=base,
        runs=runs,
        metrics=aggregate_metrics(runs),
        cache_hits=outcome.cache_hits,
        executed=outcome.executed,
        shared=outcome.shared,
    )


# --------------------------------------------------------------------- jobs
def replica_job(spec: ScenarioSpec) -> Tuple[Dict[str, Any], Any]:
    """Per-replica campaign job: simulate plus the wasted-work counter.

    The payload is the run's full metric tree with
    ``sim.total_compute_time`` added (re-executed compute is what failure
    *containment* saves; the plain ``simulate`` payload cannot grow this
    metric without invalidating pre-fault-model caches).

    A replica whose drawn trace trips a *runtime* protocol error is
    recorded as a deterministic ``error:`` record instead of tearing down
    the whole campaign: Monte Carlo statistics must not silently select
    for calm replicas, so the aggregate reports such replicas as not
    completed.  Misconfiguration (:class:`ConfigurationError`) is the same
    in every replica and propagates loudly instead.
    """
    from repro.campaign.jobs import jsonify
    from repro.errors import ProtocolError, SimulationError
    from repro.scenarios.build import build

    try:
        result = build(spec).run()
    except (SimulationError, ProtocolError) as exc:
        payload = make_payload(
            f"error:{type(exc).__name__}", None, {"error": str(exc)}
        )
        return jsonify(payload), None
    metrics = MetricSet()
    metrics.merge(result.metrics)
    metrics.set("sim.total_compute_time", result.stats.total_compute_time)
    data: Dict[str, Any] = {"rank_states": result.rank_states}
    if result.blocked:
        # Only a run that did not complete carries it: the record of a
        # completed replica stays byte-identical.
        data["blocked"] = result.blocked
    payload = make_payload(result.status, metrics, data)
    return jsonify(payload), result


def montecarlo_job(spec: ScenarioSpec) -> Tuple[Dict[str, Any], Any]:
    """The registered ``montecarlo`` job: aggregate N in-process replicas.

    The spec's ``tags["replicas"]`` (default ``20``) fixes the replica
    count.  Replicas run serially inside this job -- the campaign runner
    already fans the *montecarlo specs themselves* out over workers, and
    nested pools would not be deterministic-by-construction.
    """
    from repro.campaign.jobs import jsonify

    replicas = spec.tags.get("replicas", DEFAULT_REPLICAS)
    if not isinstance(replicas, int) or isinstance(replicas, bool) or replicas < 1:
        raise ConfigurationError(
            f"montecarlo scenario {spec.name!r}: tags['replicas'] must be a "
            f"positive integer, got {replicas!r}"
        )
    result = run_montecarlo(spec, replicas=replicas, workers=1)
    data = {
        "replicas": [
            {"name": run.name, "spec_hash": run.spec_hash, "status": run.status}
            for run in result.runs
        ],
    }
    payload = make_payload("completed", result.metrics, data)
    return jsonify(payload), result
