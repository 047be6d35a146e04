"""The drain check of a coordinated checkpoint.

A cluster checkpoints at an iteration boundary after its intra-cluster
channels have drained, so the saved cut is consistent only if every
intra-cluster message has been delivered to the application by then.  A
message still sitting unmatched in a member's unexpected queue at the cut
breaks that assumption and must stop the run with a ``ProtocolError``, in
the exact wave and in the fast-forward's whole-cluster checkpoint alike.
An unmatched *inter*-cluster message is legal: HydEE logs it at its sender.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import HydEEProtocol
from repro.errors import ProtocolError
from repro.simulator.simulation import Simulation
from repro.workloads.base import Application

CLUSTERS = [[0, 1], [2, 3]]
INTRA_MESSAGE = "intra-cluster message from 0 is still undelivered"


class StraySend(Application):
    """Four ranks; in iteration 0 ``source`` sends rank 1 a message that
    rank 1 never receives.  Every rank computes for longer than the
    message takes to arrive, so it arrives before rank 1 finishes."""

    name = "stray-send"

    def __init__(self, source: int, iterations: int = 2) -> None:
        super().__init__(4, iterations)
        self.source = source

    def setup(self, rank, nprocs):
        return {}

    def iteration(self, comm, rank, state, it):
        if it == 0 and rank == self.source:
            yield from comm.send(1, payload="stray", tag=99, size_bytes=64)
        yield from comm.compute(20.0e-6)


def simulation(source, checkpoint_interval):
    protocol = HydEEProtocol(
        clusters=CLUSTERS, checkpoint_interval=checkpoint_interval,
        checkpoint_size_bytes=1024,
    )
    return Simulation(StraySend(source), nprocs=4, protocol=protocol), protocol


class TestExactWave:
    def test_unmatched_intra_cluster_message_stops_the_checkpoint(self):
        sim, _ = simulation(source=0, checkpoint_interval=1)
        with pytest.raises(ProtocolError, match=INTRA_MESSAGE):
            sim.run()
        assert sim.storage.latest(1) is None

    def test_unmatched_inter_cluster_message_is_allowed(self):
        sim, _ = simulation(source=2, checkpoint_interval=1)
        result = sim.run()
        assert result.completed
        assert [message.source for message in sim.ranks[1].unexpected] == [2]
        assert sim.storage.writes == 4 * 2


class TestFastForwardClusterCheckpoint:
    @staticmethod
    def finished_with_stray(source):
        """A run without periodic checkpoints that leaves the stray message
        in rank 1's unexpected queue."""
        sim, protocol = simulation(source=source, checkpoint_interval=None)
        assert sim.run().completed
        assert [message.source for message in sim.ranks[1].unexpected] == [source]
        return sim, protocol

    def test_unmatched_intra_cluster_message_stops_the_checkpoint(self):
        sim, protocol = self.finished_with_stray(source=0)
        with pytest.raises(ProtocolError, match=INTRA_MESSAGE):
            protocol.fast_forward_cluster_checkpoint(
                protocol.cluster_of(1), 2, lambda rank, iteration: sim.engine.now
            )
        assert sim.storage.latest(1) is None

    def test_unmatched_inter_cluster_message_is_allowed(self):
        sim, protocol = self.finished_with_stray(source=2)
        for cluster_id in range(protocol.num_clusters):
            protocol.fast_forward_cluster_checkpoint(
                cluster_id, 2, lambda rank, iteration: sim.engine.now
            )
        assert [sim.storage.latest(rank).iteration for rank in range(4)] == [2] * 4
