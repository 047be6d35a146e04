"""Schedule-space race detection.

The simulator is deterministic by construction: equal-time events dispatch
in insertion order.  But the *model* does not constrain that order -- it is
an artefact -- so any observable behaviour that depends on it is a race the
determinism story papers over.  This package explores that schedule space:
seeded policies reorder equal-time event groups
(:mod:`~repro.schedexplore.policies`), canonical fingerprints pin the state
at every checkpoint boundary (:mod:`~repro.schedexplore.fingerprint`), the
explorer compares interleavings against the FIFO baseline
(:mod:`~repro.schedexplore.explorer`) and packages any divergence as a
minimal, replayable witness (:mod:`~repro.schedexplore.witness`).

Two front doors: ``repro-experiment schedule-explore`` explores the pinned
scenarios (the CI gate and benchmark, :mod:`~repro.schedexplore.pinned`),
and a spec tagged ``{"analysis": "schedule-explore"}`` runs through
``repro-campaign run`` (:mod:`~repro.schedexplore.job`, cached and
parallel).  Replaying a saved witness is a library call::

    from repro.schedexplore import ScheduleWitness, replay_witness
    outcome = replay_witness(ScheduleWitness.load("foo.witness.json"))
    assert outcome["reproduced"], outcome
"""

from repro.schedexplore.explorer import (
    ExplorationReport,
    InterleavingRun,
    explore,
    explore_factory,
    first_divergence,
    replay_witness,
    run_interleaving,
)
from repro.schedexplore.fingerprint import (
    FingerprintRecorder,
    fingerprint_state,
    fingerprint_value,
    normalized_trace_digest,
    stable_digest,
    state_digest,
)
from repro.schedexplore.policies import (
    AdversarialPolicy,
    FifoPolicy,
    ReplayPolicy,
    SchedulePolicy,
)
from repro.schedexplore.witness import ScheduleWitness, same_divergence, shrink_witness

__all__ = [
    "AdversarialPolicy",
    "ExplorationReport",
    "FifoPolicy",
    "FingerprintRecorder",
    "InterleavingRun",
    "ReplayPolicy",
    "SchedulePolicy",
    "ScheduleWitness",
    "explore",
    "explore_factory",
    "fingerprint_state",
    "fingerprint_value",
    "first_divergence",
    "normalized_trace_digest",
    "replay_witness",
    "run_interleaving",
    "same_divergence",
    "shrink_witness",
    "stable_digest",
    "state_digest",
]
