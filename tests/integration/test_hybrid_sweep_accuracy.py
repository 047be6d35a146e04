"""Accuracy gate of the hybrid DES budget, on the two Monte Carlo shapes.

The director schedules as little DES as the verified phase model allows: the
warm-up ends at the first verified period pair and the window before a timed
strike opens two projected iterations ahead of it.  What that must not cost
is measured here the way the change was sized: every struck replica of a
sparse sweep (long run, half the replicas struck, HydEE) and of a dense one
(short run, every replica struck, HydEE then coordinated) against its own
exact-DES run, over five fault seeds.  Volume counters are bit-identical;
the struck makespan stays inside the observatory's 2 % band and is no worse
than it was with the wider window and the full-rung warm-up.
"""

import pytest

from repro.faults.montecarlo import replica_specs, run_montecarlo
from repro.scenarios.build import build
from tests.integration.test_call_budget import struck_at_most_once
from tests.integration.test_event_stream_pins import scenario_spec
from tests.integration.test_hybrid import VOLUME_COUNTERS as PARITY_COUNTERS

SEEDS = (20, 21, 22, 23, 24)
STRUCK_MAKESPAN_REL_TOL = 2.0e-2  # benchmarks/observatory/workloads.py

#: shape -> (protocol, iterations, checkpoint interval, MTBF factor, replicas,
#: struck replicas over SEEDS, worst struck makespan error over SEEDS at the
#: parent commit -- DES from 4-6 iterations before each strike, 4k+2 warm-up).
#: The error is what re-entering fast-forward after the recovery costs (a few
#: restart delays); the pre-strike side of the window does not contribute.
SHAPES = {
    "sparse-hydee": ("hydee", 160, 8, 1.5, 8, 17, 8.906022161e-3),
    "dense-hydee": ("hydee", 40, 4, 0.25, 6, 28, 6.458358248e-3),
    "dense-coordinated": ("coordinated", 40, 4, 0.25, 6, 30, 0.0),
}
#: last-digit clock differences between two hybrid schedules (measured 1e-15).
FLOAT_NOISE = 1.0e-12

#: the parity counters of test_hybrid as metric paths, plus the recovery ones.
VOLUME_COUNTERS = tuple(f"sim.{name}" for name in PARITY_COUNTERS) + (
    "sim.ranks_rolled_back",
    "sim.replayed_messages",
    "sim.failures_injected",
    "protocol.piggyback_bytes",
    "protocol.suppressed_orphans",
)


def struck_errors(protocol, iterations, interval, mtbf_factor, replicas, seed):
    """Makespan error of each struck replica of one hybrid sweep against its
    exact run, after asserting the volume counters equal."""
    base = scenario_spec(f"accuracy-gate-{protocol}", "stencil2d", iterations, protocol, interval)
    spec = struck_at_most_once(base, mtbf_factor=mtbf_factor, seed=seed)
    sweep = run_montecarlo(spec, replicas=replicas, execution="hybrid")
    assert sweep.completed_replicas == replicas
    assert sweep.metric("faults.sim.hybrid.fallback.mean") == 0.0
    errors = []
    for hybrid, exact_spec in zip(sweep.runs, replica_specs(spec, replicas, execution="exact")):
        if not hybrid.metric("sim.failures_injected"):
            continue
        exact = build(exact_spec).run()
        assert exact.completed
        for path in VOLUME_COUNTERS:
            assert hybrid.metric(path) == exact.metric(path), (seed, hybrid.name, path)
        errors.append(abs(hybrid.metric("sim.makespan") - exact.makespan) / exact.makespan)
    return errors


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_struck_replicas_match_exact_runs_no_worse_than_the_wider_window(shape):
    *sweep, struck, parent_worst = SHAPES[shape]
    errors = [err for seed in SEEDS for err in struck_errors(*sweep, seed)]
    assert len(errors) == struck
    assert max(errors) <= STRUCK_MAKESPAN_REL_TOL
    assert max(errors) <= parent_worst + FLOAT_NOISE
