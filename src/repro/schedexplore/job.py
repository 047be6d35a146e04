"""The ``schedule-explore`` campaign job.

Registered in :data:`repro.campaign.ANALYSES` under ``"schedule-explore"``
and selected by tagging a scenario ``{"analysis": "schedule-explore"}``.
Exploration parameters ride in the same tags (and therefore in the spec
hash, so differently-parameterised explorations cache separately):

``explore_seeds``
    seed count (int) or explicit seed list; default 5.
``explore_shrink``
    delta-debug witnesses before reporting (default true).

Every seed explores with the adversarial policy; an ``explore_policy`` tag
is rejected rather than ignored.

The payload is :meth:`ExplorationReport.to_payload` -- pure JSON and fully
deterministic for a given spec, so serial and ``--workers N`` campaigns
produce byte-identical records; the artifact is the live report.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Union

from repro.campaign.jobs import JobOutcome, jsonify
from repro.errors import ConfigurationError
from repro.scenarios.spec import ScenarioSpec
from repro.schedexplore.explorer import explore


def _seeds_tag(value: Any) -> Union[int, Sequence[int]]:
    if isinstance(value, bool):
        raise TypeError("explore_seeds must be an int or a list of ints")
    if isinstance(value, int):
        return value
    seeds: List[int] = [int(seed) for seed in value]
    return seeds


def schedule_explore_job(spec: ScenarioSpec) -> JobOutcome:
    """Explore ``spec``'s schedule space; payload = invariance verdict."""
    if "explore_policy" in spec.tags:
        raise ConfigurationError(
            "the explore_policy tag is not supported: every seed explores "
            "with the adversarial policy"
        )
    seeds = _seeds_tag(spec.tags.get("explore_seeds", 5))
    shrink = bool(spec.tags.get("explore_shrink", True))
    report = explore(spec, seeds=seeds, shrink=shrink)
    return jsonify(report.to_payload()), report
