"""Adversarial interleaving explorer: the dynamic race detector.

For one scenario, the explorer runs a FIFO baseline plus N seeded
interleavings, each reordering only what the model leaves unconstrained
(same-timestamp event groups), and checks that everything the paper's
correctness argument calls interleaving-invariant actually is:

* the state fingerprint at every checkpoint-writing timestamp,
* the final state fingerprint,
* the normalized recovery trace (rollback-adjusted per-rank send sequences),
* completion status -- and, on uncontended networks, the makespan itself.

A send-deterministic workload under a correct protocol passes every seed; a
schedule-dependent one (or a protocol bug) produces a divergence, which is
captured as a replayable :class:`~repro.schedexplore.witness.ScheduleWitness`
and shrunk to a minimal reorder.

Two entry points: :func:`explore` takes a declarative
:class:`~repro.scenarios.spec.ScenarioSpec`; :func:`explore_factory` takes a
bare ``() -> Simulation`` factory, which is what tests use to probe fixture
workloads that are not registered scenario kinds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.errors import DeadlockError, SimulationError
from repro.scenarios.build import build
from repro.scenarios.spec import ScenarioSpec
from repro.schedexplore.fingerprint import (
    FingerprintRecorder,
    normalized_trace_digest,
)
from repro.schedexplore.policies import (
    AdversarialPolicy,
    FifoPolicy,
    ReplayPolicy,
    SchedulePolicy,
)
from repro.schedexplore.witness import ScheduleWitness, same_divergence, shrink_witness

if False:  # pragma: no cover - typing only
    from repro.simulator.simulation import Simulation

SimFactory = Callable[[], "Simulation"]


@dataclass
class InterleavingRun:
    """Observable outcome of one interleaving."""

    label: str
    status: str
    makespan: float
    events_processed: int
    tie_dispatches: int
    decisions: Dict[int, int]
    boundary_fingerprints: List[str]
    final_fingerprint: str
    trace_digest: Optional[str]


@dataclass
class ExplorationReport:
    """Outcome of exploring one scenario's schedule space."""

    baseline: InterleavingRun
    runs: List[InterleavingRun] = field(default_factory=list)
    witnesses: List[ScheduleWitness] = field(default_factory=list)
    #: whether timing was part of the invariant (flat network).
    times_compared: bool = True

    @property
    def invariant(self) -> bool:
        return not self.witnesses

    @property
    def interleavings(self) -> int:
        return 1 + len(self.runs)

    def to_payload(self) -> Dict[str, Any]:
        """Pure-JSON summary (campaign-cacheable, order-deterministic)."""
        makespans = [self.baseline.makespan] + [run.makespan for run in self.runs]
        ties = [run.tie_dispatches for run in self.runs]
        return {
            "interleavings": self.interleavings,
            "invariant": self.invariant,
            "divergences": len(self.witnesses),
            "times_compared": self.times_compared,
            "status": self.baseline.status,
            "final_fingerprint": self.baseline.final_fingerprint,
            "checkpoint_boundaries": len(self.baseline.boundary_fingerprints),
            "trace_digest": self.baseline.trace_digest,
            "events_processed": self.baseline.events_processed,
            "tie_dispatches": {
                "baseline": self.baseline.tie_dispatches,
                "min": min(ties) if ties else 0,
                "max": max(ties) if ties else 0,
            },
            "makespan": {
                "baseline": self.baseline.makespan,
                "min": min(makespans),
                "max": max(makespans),
                "spread": max(makespans) - min(makespans),
                "all": makespans,
            },
            "witnesses": [witness.to_dict() for witness in self.witnesses],
        }


# ------------------------------------------------------------------ running
def run_interleaving(
    sim_factory: SimFactory,
    policy: SchedulePolicy,
    include_times: bool = True,
    label: str = "",
) -> InterleavingRun:
    """Build a fresh simulation, run it under ``policy``, observe everything."""
    sim = sim_factory()
    recorder = FingerprintRecorder(sim, include_times=include_times)
    policy.install(sim.engine, recorder.on_time_drained)
    try:
        result = sim.run()
        status = result.status
        makespan = result.makespan
    except DeadlockError:
        status = "deadlock"
        makespan = sim.engine.now
    except SimulationError as exc:
        status = f"error:{exc}"
        makespan = sim.engine.now
    return InterleavingRun(
        label=label or policy.name,
        status=status,
        makespan=makespan,
        events_processed=sim.engine.events_processed,
        tie_dispatches=policy.tie_dispatches,
        decisions=dict(policy.decisions),
        boundary_fingerprints=recorder.fingerprints(),
        final_fingerprint=recorder.final(),
        trace_digest=normalized_trace_digest(sim),
    )


def first_divergence(
    baseline: InterleavingRun, run: InterleavingRun, include_times: bool = True
) -> Optional[Dict[str, Any]]:
    """Earliest observable difference between two interleavings, or None."""

    def record(kind: str, index: Optional[int], expect: Any, got: Any) -> Dict[str, Any]:
        return {
            "kind": kind,
            "index": index,
            "baseline": expect,
            "observed": got,
        }

    base_fps = baseline.boundary_fingerprints
    run_fps = run.boundary_fingerprints
    for index, (expect, got) in enumerate(zip(base_fps, run_fps)):
        if expect != got:
            return record("checkpoint-fingerprint", index, expect, got)
    if len(base_fps) != len(run_fps):
        return record(
            "checkpoint-count", min(len(base_fps), len(run_fps)), len(base_fps), len(run_fps)
        )
    if baseline.status != run.status:
        return record("status", None, baseline.status, run.status)
    if baseline.final_fingerprint != run.final_fingerprint:
        return record(
            "final-fingerprint", None, baseline.final_fingerprint, run.final_fingerprint
        )
    if baseline.trace_digest != run.trace_digest:
        return record("recovery-trace", None, baseline.trace_digest, run.trace_digest)
    if include_times and baseline.makespan != run.makespan:
        return record("makespan", None, baseline.makespan, run.makespan)
    return None


# ---------------------------------------------------------------- exploring
def explore_factory(
    sim_factory: SimFactory,
    seeds: Union[int, Sequence[int]] = 10,
    include_times: bool = True,
    shrink: bool = True,
    scenario: Optional[Dict[str, Any]] = None,
) -> ExplorationReport:
    """Explore the schedule space of whatever ``sim_factory`` builds.

    Each seed runs one :class:`AdversarialPolicy` interleaving; ``seeds`` is
    a count (seeds ``0..n-1``) or an explicit sequence.  Every
    divergence found is packaged as a witness; with ``shrink=True`` each is
    delta-debugged down to a minimal decision set before being reported.
    """
    seed_list = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
    baseline = run_interleaving(
        sim_factory, FifoPolicy(), include_times=include_times, label="fifo-baseline"
    )

    def diverges(decisions: Dict[int, int]) -> Optional[Dict[str, Any]]:
        replay = run_interleaving(
            sim_factory, ReplayPolicy(decisions), include_times=include_times
        )
        return first_divergence(baseline, replay, include_times=include_times)

    report = ExplorationReport(baseline=baseline, times_compared=include_times)
    for seed in seed_list:
        run = run_interleaving(
            sim_factory,
            AdversarialPolicy(seed),
            include_times=include_times,
            label=f"{AdversarialPolicy.name}-{seed}",
        )
        report.runs.append(run)
        divergence = first_divergence(baseline, run, include_times=include_times)
        if divergence is None:
            continue
        witness = ScheduleWitness(
            policy=AdversarialPolicy.name,
            seed=seed,
            decisions=dict(run.decisions),
            divergence=divergence,
            scenario=scenario,
            metadata={"label": run.label, "tie_dispatches": run.tie_dispatches},
        )
        if shrink:
            witness = shrink_witness(witness, diverges)
        report.witnesses.append(witness)
    return report


def prepare_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """Normalise a spec for exploration: exact execution, full tracing.

    The explorer needs the per-event discrete loop (policies do not apply to
    analytically fast-forwarded epochs) and recorded trace events (for the
    normalized recovery-trace digest).
    """
    config = dict(spec.config)
    config["record_trace_events"] = True
    return dataclasses.replace(spec, execution="exact", config=config)


def spec_is_uncontended(spec: ScenarioSpec) -> bool:
    """Whether the spec's network serialises nothing (flat topology).

    Only link contention makes event *times* schedule-dependent; everywhere
    else timing joins the invariant.
    """
    topology = spec.network.topology
    return topology is None or topology.preset == "flat"


def explore(
    spec: ScenarioSpec,
    seeds: Union[int, Sequence[int]] = 10,
    shrink: bool = True,
) -> ExplorationReport:
    """Explore a declarative scenario's schedule space."""
    prepared = prepare_spec(spec)
    return explore_factory(
        lambda: build(prepared),
        seeds=seeds,
        include_times=spec_is_uncontended(prepared),
        shrink=shrink,
        scenario=prepared.to_dict(),
    )


# ------------------------------------------------------------------- replay
def replay_witness(
    witness: ScheduleWitness, sim_factory: Optional[SimFactory] = None
) -> Dict[str, Any]:
    """Re-run a witness and report whether it reproduces its divergence.

    Uses the witness's embedded scenario unless an explicit factory is
    given.  Returns ``{"reproduced": bool, "divergence": ..., "expected":
    ...}`` -- ``reproduced`` means the replay hit the *same first
    divergence* (kind and position) the witness recorded.
    """
    if sim_factory is None:
        if witness.scenario is None:
            raise SimulationError(
                "witness has no embedded scenario; pass sim_factory explicitly"
            )
        spec = prepare_spec(ScenarioSpec.from_dict(witness.scenario))
        sim_factory = lambda: build(spec)  # noqa: E731
        include_times = spec_is_uncontended(spec)
    else:
        include_times = True
    baseline = run_interleaving(
        sim_factory, FifoPolicy(), include_times=include_times, label="fifo-baseline"
    )
    replay = run_interleaving(
        sim_factory,
        ReplayPolicy(witness.decisions),
        include_times=include_times,
        label="witness-replay",
    )
    divergence = first_divergence(baseline, replay, include_times=include_times)
    return {
        "reproduced": same_divergence(divergence, witness.divergence),
        "divergence": divergence,
        "expected": witness.divergence,
        "decisions": len(witness.decisions),
    }
