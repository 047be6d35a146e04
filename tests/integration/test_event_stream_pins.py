"""Pinned failure-free event streams.

:mod:`test_determinism_pins` pins six *faulty* runs.  These pins cover the
other half: the failure-free per-message path (isend / irecv / waitall,
protocol send and deliver hooks, transport, rank resumes, coordinated
checkpoints) under every protocol family.  A change to that path must
dispatch exactly the same events in the same ``(time, seq)`` order, so the
event count, the bit pattern of the makespan, the whole metric tree and the
per-rank statistics (blocked time is sensitive to event order) are pinned.

Regenerate the fixture (ONLY when a behaviour change is intended and
reviewed) with::

    PYTHONPATH=src python tests/integration/test_event_stream_pins.py --regen
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

import pytest

from repro.scenarios.build import build
from repro.scenarios.spec import (
    ClusteringSpec,
    NetworkSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

FIXTURE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "data",
    "pinned_event_streams.json",
)

HIERARCHICAL = TopologySpec(
    preset="hierarchical",
    params={"ranks_per_node": 2, "nodes_per_cluster": 2, "oversubscription": 8},
)


def scenario_spec(
    name: str,
    kind: str,
    iterations: int,
    protocol: str,
    checkpoint_interval: Optional[int] = None,
    topology: Optional[TopologySpec] = None,
) -> ScenarioSpec:
    options: Dict[str, Any] = {}
    if checkpoint_interval is not None:
        options = {
            "checkpoint_interval": checkpoint_interval,
            "checkpoint_size_bytes": 64 * 1024,
        }
    clustering = (
        ClusteringSpec(method="block", num_clusters=4)
        if protocol == "hydee"
        else ClusteringSpec()
    )
    return ScenarioSpec(
        name=name,
        workload=WorkloadSpec(kind=kind, nprocs=16, iterations=iterations),
        protocol=ProtocolSpec(name=protocol, clustering=clustering, options=options),
        network=NetworkSpec(topology=topology),
    )


SCENARIOS = {
    "hydee-stencil2d": lambda: scenario_spec("hydee-stencil2d", "stencil2d", 24, "hydee", 8),
    "hydee-ft-hierarchical": lambda: scenario_spec(
        "hydee-ft-hierarchical", "ft", 6, "hydee", 2, topology=HIERARCHICAL
    ),
    "hydee-pipeline-ckpt-every-iteration": lambda: scenario_spec(
        "hydee-pipeline-ckpt-every-iteration", "pipeline", 12, "hydee", 1
    ),
    "coordinated-stencil2d": lambda: scenario_spec(
        "coordinated-stencil2d", "stencil2d", 6, "coordinated", 2
    ),
    "message-logging-stencil2d": lambda: scenario_spec(
        "message-logging-stencil2d", "stencil2d", 6, "message-logging", 2
    ),
    "native-stencil2d": lambda: scenario_spec("native-stencil2d", "stencil2d", 6, "native"),
}


def _sha256(payload: Any) -> str:
    # json.dumps writes floats with repr(), which round-trips exactly: equal
    # digests mean bit-identical values.
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_scenario(name: str) -> Dict[str, Any]:
    """Run one pinned scenario and return its canonical digest."""
    result = build(SCENARIOS[name]()).run()
    stats = result.stats
    return {
        "status": result.status,
        "events_processed": stats.events_processed,
        "app_messages": stats.app_messages,
        "makespan_hex": result.makespan.hex(),
        "metrics_digest": _sha256(result.metrics.to_tree()),
        "ranks_digest": _sha256(
            {
                str(rank): [stats.ranks[rank].as_dict(), result.rank_results[rank]]
                for rank in sorted(stats.ranks)
            }
        ),
    }


def generate_all() -> Dict[str, Any]:
    return {name: run_scenario(name) for name in sorted(SCENARIOS)}


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Any]:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_stream_pinned(name, pinned):
    assert name in pinned, (
        f"scenario {name!r} missing from the fixture; regenerate with "
        f"`PYTHONPATH=src python {__file__} --regen` on a trusted baseline"
    )
    assert run_scenario(name) == pinned[name]


def test_fixture_covers_exactly_the_scenarios(pinned):
    assert sorted(pinned) == sorted(SCENARIOS)


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        raise SystemExit("pass --regen to overwrite the pinned fixture")
    payload = generate_all()
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE} ({len(payload)} scenarios)")
