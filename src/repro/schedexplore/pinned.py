"""Pinned exploration scenarios: declarative twins of the determinism pins.

These specs mirror the faulty scenarios of
``tests/integration/test_determinism_pins.py`` -- the runs whose observable
behaviour is already pinned byte-for-byte against a fixture -- so the
explorer, the CI smoke job and the benchmark all probe exactly the recovery
paths the regression suite protects: a HydEE partial rollback, a coordinated
global rollback and a full-message-logging localised replay, each with small
(16 KiB) checkpoints so recovery structure dominates.  A fourth scenario
strikes a second HydEE cluster while the first one's recovery session is
active, so the explorer also perturbs a joined session.

All four run send-deterministic workloads on the flat network, so every
seeded interleaving must reproduce the FIFO baseline exactly -- state,
recovery trace *and* timing.  A divergence here is a real schedule-space
race in the simulator or a protocol, never an expected spread.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.scenarios.spec import (
    ClusteringSpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.simulator.failures import FailureEvent

_CLUSTERS16 = ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15))

_HYDEE_STENCIL2D = ScenarioSpec(
    name="hydee-stencil2d-single-failure",
    workload=WorkloadSpec(kind="stencil2d", nprocs=16, iterations=8),
    protocol=ProtocolSpec(
        name="hydee",
        options={"checkpoint_interval": 2, "checkpoint_size_bytes": 16 * 1024},
        clustering=ClusteringSpec(method="explicit", clusters=_CLUSTERS16),
    ),
    failures=(FailureEvent(ranks=(9,), at_iteration=5),),
)

PINNED_SCENARIOS: Dict[str, ScenarioSpec] = {
    "hydee-stencil2d-single-failure": _HYDEE_STENCIL2D,
    "hydee-stencil2d-joined-strikes": dataclasses.replace(
        _HYDEE_STENCIL2D,
        name="hydee-stencil2d-joined-strikes",
        failures=(FailureEvent(ranks=(5,), time=200e-6), FailureEvent(ranks=(10,), time=205e-6)),
    ),
    "coordinated-stencil2d": ScenarioSpec(
        name="coordinated-stencil2d",
        workload=WorkloadSpec(kind="stencil2d", nprocs=16, iterations=6),
        protocol=ProtocolSpec(
            name="coordinated",
            options={"checkpoint_interval": 2, "checkpoint_size_bytes": 16 * 1024},
        ),
        failures=(FailureEvent(ranks=(6,), at_iteration=4),),
    ),
    "message-logging-ring": ScenarioSpec(
        name="message-logging-ring",
        workload=WorkloadSpec(kind="ring", nprocs=8, iterations=6),
        protocol=ProtocolSpec(
            name="message-logging",
            options={"checkpoint_interval": 2, "checkpoint_size_bytes": 16 * 1024},
        ),
        failures=(FailureEvent(ranks=(3,), at_iteration=3),),
    ),
}


def available_pinned() -> List[str]:
    return sorted(PINNED_SCENARIOS)


def pinned_spec(
    name: str,
    seeds: Union[int, Sequence[int]] = 5,
    shrink: bool = True,
) -> ScenarioSpec:
    """A pinned scenario tagged as a ``schedule-explore`` campaign job."""
    try:
        spec = PINNED_SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown pinned exploration scenario {name!r}; available: "
            f"{', '.join(available_pinned())}"
        ) from None
    tags: Dict[str, Any] = {
        "analysis": "schedule-explore",
        "explore_seeds": list(seeds) if not isinstance(seeds, int) else seeds,
        "explore_shrink": shrink,
    }
    return dataclasses.replace(spec, tags=tags)
