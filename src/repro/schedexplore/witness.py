"""Replayable schedule witnesses and greedy delta-debug shrinking.

When an interleaving diverges from the FIFO baseline, the explorer packages
the policy's recorded decisions -- ``{tie index: engine seq}``, the complete
description of how that run departed from canonical order -- together with
the scenario and the observed first divergence into a :class:`
ScheduleWitness`.  The witness is a plain JSON document: re-running the
scenario under a :class:`~repro.schedexplore.policies.ReplayPolicy` built
from its decisions reproduces the divergent schedule deterministically, on
any machine, serial or inside a worker pool.

A fresh witness from the adversarial policy typically contains hundreds of
decisions, almost all irrelevant.  :func:`shrink_witness` hands them to
:func:`shrink`, the greedy drop-one loop over any list: it drops one decision
at a time (replaying the rest, FIFO at the dropped tie) and keeps each drop
that preserves the *same first divergence*, iterating to a fixed point.
The result is a minimal-ish reorder -- frequently a single swapped pair --
that still triggers the bug, which is the artefact a human debugs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class ScheduleWitness:
    """A replayable divergent schedule."""

    #: policy that found the divergence (the explorer's is ``adversarial``).
    policy: str
    #: seed the finding policy ran with.
    seed: int
    #: tie index -> engine seq dispatched there (non-FIFO choices only).
    decisions: Dict[int, int]
    #: first observed divergence: {"kind", "index"?, "baseline", "observed"}.
    divergence: Dict[str, Any]
    #: scenario spec (:meth:`ScenarioSpec.to_dict`), when spec-driven.
    scenario: Optional[Dict[str, Any]] = None
    #: decision count of the unshrunk witness (0 = never shrunk).
    original_decisions: int = 0
    version: int = 1
    metadata: Dict[str, Any] = field(default_factory=dict)

    # ---------------------------------------------------------------- i/o
    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "policy": self.policy,
            "seed": self.seed,
            "decisions": {str(key): value for key, value in sorted(self.decisions.items())},
            "divergence": self.divergence,
            "scenario": self.scenario,
            "original_decisions": self.original_decisions,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScheduleWitness":
        return cls(
            policy=str(data["policy"]),
            seed=int(data["seed"]),
            decisions={int(k): int(v) for k, v in data["decisions"].items()},
            divergence=dict(data["divergence"]),
            scenario=data.get("scenario"),
            original_decisions=int(data.get("original_decisions", 0)),
            version=int(data.get("version", 1)),
            metadata=dict(data.get("metadata", {})),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "ScheduleWitness":
        with open(os.fspath(path), encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def same_divergence(a: Optional[Dict[str, Any]], b: Optional[Dict[str, Any]]) -> bool:
    """Whether two divergence records describe the same first divergence.

    Matching is by kind and position (boundary index), not by the observed
    hash: a shrunk schedule may corrupt state *differently* at the same
    dispatch point, and that still witnesses the same race.
    """
    if a is None or b is None:
        return False
    return a.get("kind") == b.get("kind") and a.get("index") == b.get("index")


def shrink(
    items: Sequence[T],
    check: Callable[[List[T]], Optional[R]],
    max_rounds: int = 4,
) -> Tuple[List[T], Optional[R]]:
    """Greedy delta-debug over any list: drop items ``check`` can do without.

    ``check(trial)`` runs the candidate list and returns a result when it
    still shows what is being shrunk for, ``None`` when it does not.  One
    round tries dropping each item in turn, the last first (late items are
    usually consequences, not causes), and keeps every drop ``check``
    accepts; rounds repeat until a fixed point or ``max_rounds``.  Returns
    the shrunk list and the result of its last accepted check (``None`` when
    no drop was accepted).
    """
    current = list(items)
    result: Optional[R] = None
    for _ in range(max_rounds):
        dropped_any = False
        for index in reversed(range(len(current))):
            trial = current[:index] + current[index + 1:]
            observed = check(trial)
            if observed is not None:
                current, result = trial, observed
                dropped_any = True
        if not dropped_any:
            break
    return current, result


def shrink_witness(
    witness: ScheduleWitness,
    diverges: Callable[[Dict[int, int]], Optional[Dict[str, Any]]],
) -> ScheduleWitness:
    """Shrink a witness to the decisions its divergence needs.

    ``diverges(decisions)`` re-runs the scenario under a replay of
    ``decisions`` and returns the first-divergence record, or ``None`` when
    the run matches the baseline.  :func:`shrink` drops decisions, highest
    tie index first, while the *same* first divergence shows.  The returned
    witness's divergence is the one observed with the final decision set,
    so replaying the shrunk witness reproduces exactly what it claims.
    """

    def check(decisions: List[Tuple[int, int]]) -> Optional[Dict[str, Any]]:
        observed = diverges(dict(decisions))
        return observed if same_divergence(observed, witness.divergence) else None

    decisions, observed = shrink(sorted(witness.decisions.items()), check)
    return ScheduleWitness(
        policy=witness.policy,
        seed=witness.seed,
        decisions=dict(decisions),
        divergence=witness.divergence if observed is None else observed,
        scenario=witness.scenario,
        original_decisions=witness.original_decisions or len(witness.decisions),
        metadata=dict(witness.metadata),
    )
