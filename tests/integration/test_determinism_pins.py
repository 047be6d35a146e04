"""Pinned recovery-trace regression tests.

These tests pin the *exact* observable behaviour of recovery runs (HydEE and
coordinated checkpointing, with failures) against a JSON fixture generated
from the pre-overhaul simulator.  They are the proof that the checkpoint
snapshot-strategy and event-loop hot-path changes did not alter a single
event: makespans, event counts, per-rank results, protocol counters and
recovery reports must all be byte-identical to the seed behaviour.

Regenerate the fixture (ONLY when a behaviour change is intended and
reviewed) with::

    PYTHONPATH=src python tests/integration/test_determinism_pins.py --regen
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

import pytest

from repro.core.protocol import HydEEProtocol
from repro.ftprotocols.coordinated import CoordinatedCheckpointProtocol
from repro.ftprotocols.message_logging import FullMessageLoggingProtocol
from repro.simulator.failures import FailureEvent, FailureInjector
from repro.simulator.simulation import Simulation
from repro.workloads.nas import make_nas_application
from repro.workloads.ring import RingApplication
from repro.workloads.stencil import Stencil2DApplication

FIXTURE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "data",
    "pinned_recovery_traces.json",
)

CLUSTERS16 = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]
CLUSTERS8 = [[0, 1, 2, 3], [4, 5, 6, 7]]


def _hydee(clusters, interval):
    return HydEEProtocol(
        clusters=clusters,
        checkpoint_interval=interval,
        checkpoint_size_bytes=16 * 1024,
    )


SCENARIOS = {
    "hydee-stencil2d-single-failure": lambda: (
        Stencil2DApplication(nprocs=16, iterations=8),
        _hydee(CLUSTERS16, 2),
        [FailureEvent(ranks=[9], at_iteration=5)],
    ),
    "hydee-stencil2d-ckpt-every-iteration": lambda: (
        Stencil2DApplication(nprocs=16, iterations=8),
        _hydee(CLUSTERS16, 1),
        [FailureEvent(ranks=[6], at_iteration=6)],
    ),
    "hydee-ring-two-failures": lambda: (
        RingApplication(nprocs=8, iterations=8),
        _hydee(CLUSTERS8, 2),
        [
            FailureEvent(ranks=[2], at_iteration=3),
            FailureEvent(ranks=[5], at_iteration=6, rank_trigger=5),
        ],
    ),
    "hydee-nas-cg": lambda: (
        make_nas_application("cg", nprocs=16, iterations=5),
        _hydee(CLUSTERS16, 2),
        [FailureEvent(ranks=[11], at_iteration=3)],
    ),
    "coordinated-stencil2d": lambda: (
        Stencil2DApplication(nprocs=16, iterations=6),
        CoordinatedCheckpointProtocol(
            checkpoint_interval=2, checkpoint_size_bytes=16 * 1024
        ),
        [FailureEvent(ranks=[6], at_iteration=4)],
    ),
    "message-logging-ring": lambda: (
        RingApplication(nprocs=8, iterations=6),
        FullMessageLoggingProtocol(
            checkpoint_interval=2, checkpoint_size_bytes=16 * 1024
        ),
        [FailureEvent(ranks=[3], at_iteration=3)],
    ),
}


def run_scenario(name: str) -> Dict[str, Any]:
    """Run one pinned scenario and return its canonical digest."""
    app, protocol, failures = SCENARIOS[name]()
    sim = Simulation(
        app,
        nprocs=app.nprocs,
        protocol=protocol,
        failures=FailureInjector(failures),
    )
    result = sim.run()
    digest: Dict[str, Any] = {
        "status": result.status,
        "makespan": result.makespan,
        "events_processed": result.stats.events_processed,
        "checkpoints_taken": result.stats.checkpoints_taken,
        "checkpoint_bytes": result.stats.checkpoint_bytes,
        "ranks_rolled_back": result.stats.ranks_rolled_back,
        "control_messages": result.stats.control_messages,
        "logged_messages": result.stats.logged_messages,
        "app_messages": result.stats.app_messages,
        "rank_results": {str(r): v for r, v in sorted(result.rank_results.items())},
        "protocol_counters": protocol.pstats.as_dict(),
    }
    reports = getattr(protocol, "recovery_reports", None)
    if reports is not None:
        digest["recovery_reports"] = reports
    # Round-trip through JSON so the comparison happens in the fixture's
    # domain (tuples become lists, int keys become strings, float repr
    # normalised) -- byte-identical means identical JSON.
    return json.loads(json.dumps(digest, sort_keys=True))


def generate_all() -> Dict[str, Any]:
    return {name: run_scenario(name) for name in sorted(SCENARIOS)}


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Any]:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_recovery_trace_pinned(name, pinned):
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
