"""Integration tests for the baseline protocols' failure handling.

These pin down the comparison points the paper argues against: global
coordinated checkpointing rolls everyone back, pessimistic message logging
contains the failure to the failed process but logs everything, and the
hybrid-with-event-logging protocol behaves like HydEE plus determinant costs.
"""

import pytest

from repro import (
    CoordinatedCheckpointProtocol,
    FullMessageLoggingProtocol,
    HybridEventLoggingProtocol,
    HydEEProtocol,
    Simulation,
)
from repro.ftprotocols.base import DETERMINANT_LATENCY_S
from repro.simulator.failures import FailureEvent, FailureInjector
from repro.simulator.protocol_api import ProtocolHooks
from repro.workloads import PipelineApplication, RingApplication, Stencil2DApplication

CLUSTERS16 = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]
STENCIL = lambda: Stencil2DApplication(nprocs=16, iterations=8)


def run(app_factory, protocol=None, failures=None):
    app = app_factory()
    return Simulation(app, nprocs=app.nprocs, protocol=protocol, failures=failures).run()


class TestCoordinatedCheckpointing:
    def test_everyone_rolls_back(self):
        reference = run(STENCIL)
        protocol = CoordinatedCheckpointProtocol(checkpoint_interval=2,
                                                 checkpoint_size_bytes=16 * 1024)
        result = run(STENCIL, protocol,
                     FailureInjector([FailureEvent(ranks=[5], at_iteration=5)]))
        assert result.completed
        assert result.rank_results == reference.rank_results
        assert result.stats.ranks_rolled_back == 16
        assert protocol.rollback_events[0]["restore_iteration"] == 4

    def test_failure_before_first_checkpoint_restarts_everything(self):
        reference = run(STENCIL)
        protocol = CoordinatedCheckpointProtocol(checkpoint_interval=10,
                                                 checkpoint_size_bytes=16 * 1024)
        result = run(STENCIL, protocol,
                     FailureInjector([FailureEvent(ranks=[3], at_iteration=2)]))
        assert result.rank_results == reference.rank_results
        assert protocol.rollback_events[0]["restore_iteration"] == 0

    def test_no_logging_at_all(self):
        protocol = CoordinatedCheckpointProtocol(checkpoint_interval=2,
                                                 checkpoint_size_bytes=16 * 1024)
        result = run(STENCIL, protocol)
        assert result.stats.logged_messages == 0
        assert protocol.pstats.logged_bytes == 0


class TestFullMessageLogging:
    @pytest.mark.parametrize("factory", [STENCIL,
                                         lambda: RingApplication(nprocs=16, iterations=6),
                                         lambda: PipelineApplication(nprocs=16, iterations=5)],
                             ids=["stencil", "ring", "pipeline"])
    def test_only_failed_rank_rolls_back(self, factory):
        reference = run(factory)
        protocol = FullMessageLoggingProtocol(checkpoint_interval=2,
                                              checkpoint_size_bytes=16 * 1024)
        result = run(factory, protocol,
                     FailureInjector([FailureEvent(ranks=[6], at_iteration=4)]))
        assert result.completed
        assert result.rank_results == reference.rank_results
        assert result.stats.ranks_rolled_back == 1

    def test_logs_every_message_and_determinants(self):
        protocol = FullMessageLoggingProtocol(checkpoint_interval=2,
                                              checkpoint_size_bytes=16 * 1024)
        result = run(STENCIL, protocol)
        assert result.stats.logged_messages == result.stats.app_messages
        assert protocol.pstats.determinants_logged == result.stats.app_messages
        assert result.metric("protocol.determinant_latency_s") == DETERMINANT_LATENCY_S > 0

    def test_duplicate_suppression_counts(self):
        protocol = FullMessageLoggingProtocol(checkpoint_interval=2,
                                              checkpoint_size_bytes=16 * 1024)
        result = run(STENCIL, protocol,
                     FailureInjector([FailureEvent(ranks=[6], at_iteration=5)]))
        assert result.completed
        # The recovering rank re-sent messages its peers had already received.
        assert result.stats.extra.get("suppressed_duplicates", 0) > 0

    def test_every_arrival_reaches_the_logging_hook(self):
        # Two strikes, pinned: the protocol sees every arrival (replays
        # included) and suppresses the re-sent duplicates among them.
        arrivals = []

        class Spy(FullMessageLoggingProtocol):
            def on_message_arrival(self, rank, message):
                arrivals.append(message)
                return super().on_message_arrival(rank, message)

        protocol = Spy(checkpoint_interval=2, checkpoint_size_bytes=16 * 1024)
        result = run(lambda: Stencil2DApplication(nprocs=16, iterations=10), protocol,
                     FailureInjector([FailureEvent(ranks=[6], at_iteration=3),
                                      FailureEvent(ranks=[9], at_iteration=6)]))
        assert result.completed
        assert result.metric("sim.suppressed_duplicates") == 12
        assert len(arrivals) == 504
        assert result.stats.events_processed == 1531

    def test_memory_footprint_larger_than_hydee(self):
        full = FullMessageLoggingProtocol(checkpoint_interval=None)
        run(STENCIL, full)
        hydee = HydEEProtocol(clusters=CLUSTERS16)
        run(STENCIL, hydee)
        assert (
            sum(full.memory_usage_bytes().values())
            > sum(hydee.memory_usage_bytes().values())
            > 0
        )


class TestHybridEventLogging:
    def test_recovery_matches_reference_and_logs_determinants(self):
        reference = run(STENCIL)
        protocol = HybridEventLoggingProtocol(
            clusters=CLUSTERS16, checkpoint_interval=2, checkpoint_size_bytes=16 * 1024
        )
        result = run(STENCIL, protocol,
                     FailureInjector([FailureEvent(ranks=[5], at_iteration=5)]))
        assert result.completed
        assert result.rank_results == reference.rank_results
        assert result.stats.ranks_rolled_back == 4
        assert protocol.pstats.determinants_logged > 0

    def test_costs_at_least_as_much_as_hydee(self):
        hydee = HydEEProtocol(clusters=CLUSTERS16)
        hybrid = HybridEventLoggingProtocol(clusters=CLUSTERS16)
        hydee_result = run(STENCIL, hydee)
        hybrid_result = run(STENCIL, hybrid)
        assert hybrid_result.makespan > hydee_result.makespan
        assert hybrid_result.rank_results == hydee_result.rank_results


class TestContainmentComparison:
    def test_rollback_extent_ordering(self):
        """message logging (1 rank) < HydEE (one cluster) < coordinated (all)."""
        failure = lambda: FailureInjector([FailureEvent(ranks=[5], at_iteration=5)])
        hydee = run(STENCIL, HydEEProtocol(clusters=CLUSTERS16,
                                           checkpoint_interval=2,
                                           checkpoint_size_bytes=16 * 1024),
                    failure())
        logging_ = run(STENCIL, FullMessageLoggingProtocol(checkpoint_interval=2,
                                                           checkpoint_size_bytes=16 * 1024),
                       failure())
        coordinated = run(STENCIL, CoordinatedCheckpointProtocol(checkpoint_interval=2,
                                                                 checkpoint_size_bytes=16 * 1024),
                          failure())
        assert logging_.stats.ranks_rolled_back == 1
        assert hydee.stats.ranks_rolled_back == 4
        assert coordinated.stats.ranks_rolled_back == 16

    def test_logged_volume_ordering(self):
        """coordinated (0) < HydEE (inter-cluster only) < full message logging."""
        hydee = HydEEProtocol(clusters=CLUSTERS16)
        full = FullMessageLoggingProtocol()
        coordinated = CoordinatedCheckpointProtocol()
        r_hydee = run(STENCIL, hydee)
        r_full = run(STENCIL, full)
        r_coord = run(STENCIL, coordinated)
        assert r_coord.stats.logged_bytes == 0
        assert 0 < r_hydee.stats.logged_bytes < r_full.stats.logged_bytes


class TestArrivalBinding:
    """A protocol is asked about each arrival only if it overrides the hook."""

    @pytest.mark.parametrize("protocol", [lambda: None,
                                          lambda: HydEEProtocol(clusters=CLUSTERS16)],
                             ids=["none", "hydee"])
    def test_default_hook_is_never_called_per_arrival(self, monkeypatch, protocol):
        arrivals = []

        def spy(self, rank, message):
            arrivals.append(message)
            return True

        monkeypatch.setattr(ProtocolHooks, "on_message_arrival", spy)
        protocol = protocol()
        # HydEE recovers from a strike; without a protocol there is none.
        failures = None if protocol is None else FailureInjector(
            [FailureEvent(ranks=[5], at_iteration=5)])
        result = run(STENCIL, protocol, failures)
        assert result.completed
        assert result.metric("sim.app_messages") > 0
        assert arrivals == []
