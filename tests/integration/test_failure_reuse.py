"""One failure list drives any number of simulations.

A :class:`FailureEvent` is a frozen value and the injector keeps what became
of each strike in this run, so running the same tuple of events twice gives
the same run twice -- in exact and in hybrid execution alike.
"""

import pytest

from repro.scenarios.build import build_application, build_config, build_protocol
from repro.scenarios.spec import ClusteringSpec, ProtocolSpec, ScenarioSpec, WorkloadSpec
from repro.simulator.failures import FailureEvent, FailureInjector
from repro.simulator.simulation import Simulation

CLUSTERS16 = ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15))

#: an iteration-triggered strike and a timed one, shared by every run below.
STRIKES = (
    FailureEvent(ranks=(9,), at_iteration=5),
    FailureEvent(ranks=(2,), time=300e-6),
)


def _spec(execution, iterations):
    return ScenarioSpec(
        name=f"reuse-{execution}",
        workload=WorkloadSpec(kind="stencil2d", nprocs=16, iterations=iterations),
        protocol=ProtocolSpec(
            name="hydee",
            options={"checkpoint_interval": 2, "checkpoint_size_bytes": 16 * 1024},
            clustering=ClusteringSpec(method="explicit", clusters=CLUSTERS16),
        ),
        execution=execution,
    )


def _run(spec, events):
    sim = Simulation(
        build_application(spec.workload),
        nprocs=spec.workload.nprocs,
        protocol=build_protocol(spec),
        failures=FailureInjector(events),
        config=build_config(spec),
    )
    result = sim.run()
    injector = {k: v for k, v in result.metrics.items() if k.startswith("sim.injector.")}
    return {
        "status": result.status,
        "makespan": result.stats.makespan,
        "failures_injected": result.metric("sim.failures_injected"),
        "injector": injector,
    }


@pytest.mark.parametrize("execution, iterations", [("exact", 8), ("hybrid", 40)])
def test_one_failure_list_drives_two_equal_runs(execution, iterations):
    spec = _spec(execution, iterations)
    first = _run(spec, STRIKES)
    second = _run(spec, STRIKES)
    assert first["status"] == "completed"
    assert first["failures_injected"] == 2
    assert set(first["injector"]) == {
        "sim.injector.armed_fires",
        "sim.injector.disarmed_events",
        "sim.injector.failed_ranks",
        "sim.injector.retargeted_events",
    }
    assert second == first
    # The events themselves are untouched by either run.
    assert STRIKES[0] == FailureEvent(ranks=(9,), at_iteration=5)
    assert STRIKES[0].rank_trigger is None


def test_a_finished_run_leaves_the_next_injector_every_strike_ahead():
    # The hybrid director plans its epochs from these two lookaheads; a run
    # that marked the shared events fired would hide both strikes from it.
    _run(_spec("exact", 8), STRIKES)
    injector = FailureInjector(STRIKES)
    assert injector.next_timed_failure_time() == 300e-6
    assert injector.next_iteration_trigger() == 5
    assert injector.status == ["pending", "pending"]
