"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import pytest

from repro.core.protocol import HydEEProtocol
from repro.simulator.engine import Condition
from repro.simulator.failures import FailureEvent, FailureInjector
from repro.simulator.ops import WaitConditionOp, WaitOp
from repro.simulator.process import RankState
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.workloads.ring import RingApplication
from repro.workloads.stencil import Stencil2DApplication


def run_simulation(app, nprocs, protocol=None, failures=None, config=None):
    """Build and run a simulation, returning (result, simulation)."""
    sim = Simulation(app, nprocs=nprocs, protocol=protocol, failures=failures, config=config)
    result = sim.run()
    return result, sim


@pytest.fixture
def four_clusters_16():
    """Four clusters of four ranks (a 4x4 process grid split by rows)."""
    return [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]


@pytest.fixture
def stencil16():
    """A 16-rank 2-D stencil workload factory."""

    def make(iterations: int = 6):
        return Stencil2DApplication(nprocs=16, iterations=iterations)

    return make


@pytest.fixture
def ring8():
    """An 8-rank ring workload factory."""

    def make(iterations: int = 5):
        return RingApplication(nprocs=8, iterations=iterations)

    return make


@pytest.fixture
def hydee16(four_clusters_16):
    """HydEE protocol factory for the 16-rank stencil."""

    def make(checkpoint_interval: int = 2, **kwargs):
        return HydEEProtocol(
            clusters=four_clusters_16,
            checkpoint_interval=checkpoint_interval,
            checkpoint_size_bytes=64 * 1024,
            **kwargs,
        )

    return make


@pytest.fixture
def single_failure():
    """Failure injector factory: given ranks and iteration, build an injector."""

    def make(ranks, at_iteration=None, time=None):
        return FailureInjector([FailureEvent(ranks=list(ranks), at_iteration=at_iteration,
                                             time=time)])

    return make


class WaitProbe:
    """Rank 0 of an idle two-rank simulation, blocked on one ``WaitOp``.

    The requests are hand-made and completed by the test, so completion
    order is under its control.  ``resumed`` records the value of *every*
    resumption of the waiting coroutine: a correct wait leaves exactly one.
    """

    def __init__(self, mode, requests):
        def waiter():
            value = yield WaitOp(requests=requests, mode=mode)
            park = Condition("never-fired")
            while True:
                self.resumed.append(value)
                value = yield WaitConditionOp(condition=park)

        self.sim = Simulation(
            RingApplication(nprocs=2, iterations=1),
            nprocs=2,
            config=SimulationConfig(record_trace_events=False),
        )
        self.proc = self.sim.ranks[0]
        self.resumed = []
        self.proc._gen = waiter()
        self.proc.state = RankState.RUNNING
        self.proc._advance(self.proc.incarnation, None, None)
        self.sim.engine.run()

    def complete(self, request, value):
        request._complete(value, self.sim.engine.now)
        self.sim.engine.run()

    def roll_back(self):
        """What a rollback does to continuations: a new incarnation."""
        self.proc.incarnation += 1
