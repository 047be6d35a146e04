"""Unit tests for the baseline protocols, registry and analytic model."""

import pytest

from repro import (
    CoordinatedCheckpointProtocol,
    FullMessageLoggingProtocol,
    HybridEventLoggingProtocol,
    HydEEProtocol,
    NoFaultToleranceProtocol,
    Simulation,
    available_protocols,
    make_protocol,
)
from repro.analysis.perf_model import (
    analytic_pingpong_series,
    iteration_overhead_estimate,
    message_cost,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.ftprotocols.base import ClusteredProtocolBase, normalize_clusters
from repro.simulator.failures import FailureEvent, FailureInjector
from repro.simulator.network import MyrinetMXModel, PiggybackPolicy
from repro.simulator.protocol_api import ProtocolHooks, linear_delta
from repro.workloads import MasterWorkerApplication, RingApplication


class TestNormalizeClusters:
    def test_none_means_single_cluster(self):
        assert normalize_clusters(None, 4) == [[0, 1, 2, 3]]

    def test_partition_validation(self):
        with pytest.raises(ConfigurationError):
            normalize_clusters([[0, 1], [1, 2]], 3)          # overlap
        with pytest.raises(ConfigurationError):
            normalize_clusters([[0, 1]], 3)                   # missing rank
        with pytest.raises(ConfigurationError):
            normalize_clusters([[0, 1], []], 2)               # empty cluster
        with pytest.raises(ConfigurationError):
            normalize_clusters([[0, 5]], 2)                   # out of range

    def test_sorted_output(self):
        assert normalize_clusters([[3, 1], [0, 2]], 4) == [[1, 3], [0, 2]]


class TestRegistry:
    def test_available_protocols(self):
        names = available_protocols()
        assert {"hydee", "coordinated", "message-logging", "native"} <= set(names)

    def test_make_protocol_instances(self):
        assert isinstance(make_protocol("native"), NoFaultToleranceProtocol)
        assert isinstance(make_protocol("coordinated"), CoordinatedCheckpointProtocol)
        assert isinstance(make_protocol("message-logging"), FullMessageLoggingProtocol)
        assert isinstance(make_protocol("hybrid-event-logging"), HybridEventLoggingProtocol)
        hydee = make_protocol("hydee", clusters=[[0, 1], [2, 3]])
        assert isinstance(hydee, HydEEProtocol)
        log_all = make_protocol("hydee-log-all")
        assert log_all.log_all_messages is True

    def test_message_hooks_run_in_fast_forward_exactly_when_overridden(self):
        # Derived from the class: HydEE stamps dates and message logging logs
        # payloads; coordinated checkpointing and native have no message hook.
        derived = {name: make_protocol(name).ff_send_hook for name in available_protocols()}
        assert derived == {
            "coordinated": False, "hybrid-event-logging": True, "hydee": True,
            "hydee-log-all": True, "message-logging": True, "native": False,
        }

    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            make_protocol("unknown-protocol")

    @pytest.mark.parametrize(
        "option",
        [{"checkpoint_interval": 0}, {"checkpoint_interval": -2},
         {"checkpoint_size_bytes": -5}],
        ids=["interval-0", "interval-negative", "size-negative"],
    )
    @pytest.mark.parametrize(
        "name",
        [name for name in available_protocols()
         if isinstance(make_protocol(name), ClusteredProtocolBase)],
    )
    def test_clustered_protocols_reject_bad_checkpoint_options(self, name, option):
        # Interval 0 would never checkpoint and -2 would checkpoint at every
        # even iteration (it % -2 == 0): both are input errors.
        with pytest.raises(ConfigurationError):
            make_protocol(name, **option)


class TestNoFaultTolerance:
    def test_failure_aborts_execution(self):
        app = RingApplication(nprocs=4, iterations=4)
        injector = FailureInjector([FailureEvent(ranks=[2], at_iteration=2)])
        sim = Simulation(app, nprocs=4, protocol=NoFaultToleranceProtocol(), failures=injector)
        with pytest.raises(ProtocolError):
            sim.run()

    def test_failure_can_be_tolerated_for_reporting(self):
        app = RingApplication(nprocs=4, iterations=2)
        protocol = NoFaultToleranceProtocol()
        injector = FailureInjector([FailureEvent(ranks=[2], time=1.0)])
        # A native run survives no failure; this strike lands after
        # completion, so it never fires and the run still succeeds.
        result = Simulation(app, nprocs=4, protocol=protocol, failures=injector).run()
        assert result.completed


class TestHydEEConstruction:
    def test_rejects_non_send_deterministic_application(self):
        app = MasterWorkerApplication(nprocs=4)
        protocol = HydEEProtocol(clusters=[[0, 1], [2, 3]])
        with pytest.raises(ConfigurationError):
            Simulation(app, nprocs=4, protocol=protocol)

    def test_cluster_helpers(self):
        protocol = HydEEProtocol(clusters=[[0, 1], [2, 3]])
        Simulation(RingApplication(nprocs=4, iterations=1), nprocs=4, protocol=protocol)
        assert protocol.cluster_of(0) == protocol.cluster_of(1)
        assert protocol.is_inter_cluster(1, 2)
        assert not protocol.is_inter_cluster(2, 3)
        assert protocol.ranks_outside_cluster(0) == [2, 3]
        assert protocol.num_clusters == 2


class TestEpochStateContract:
    """Who may batch fast-forwarded epochs (``ff_epoch_snapshot`` is not
    ``None``): protocols that extrapolate their message state, and clustered
    protocols that declare they have none."""

    @staticmethod
    def attached(protocol):
        Simulation(RingApplication(nprocs=4, iterations=1), nprocs=4, protocol=protocol)
        return protocol

    def test_stateless_clustered_protocol_batches_by_declaration(self):
        from repro.simulator.hybrid import HybridDirector

        protocol = self.attached(CoordinatedCheckpointProtocol(checkpoint_interval=4))
        before = protocol.ff_epoch_snapshot()
        assert before == {"pstats": protocol.pstats.as_dict()}
        delta = linear_delta(before, protocol.ff_epoch_snapshot())
        assert not any(delta["pstats"].values())
        protocol.ff_epoch_apply(delta, 1000)
        assert protocol.ff_epoch_snapshot() == before  # nothing to extrapolate
        # A checkpoint or a rollback between two probe snapshots voids the
        # window: the director's rule, over its ``steady`` column.
        director = HybridDirector(protocol.sim)
        states = [director._epoch_state() for _ in range(3)]
        assert set(states[0]) > {"pstats", "steady"}
        assert director._verified_delta(states, {}) == (linear_delta(*states[1:]), None)
        for moved, bump in [
            ("checkpoints_taken", lambda sim: setattr(sim.storage, "writes", 1)),
            ("ranks_rolled_back", lambda sim: setattr(sim.stats, "ranks_rolled_back", 4)),
        ]:
            states = [director._epoch_state() for _ in range(3)]
            bump(protocol.sim)
            states += [director._epoch_state()] * 2
            # ... wherever in the window it happened, for single and pair deltas.
            for window in (states[1:4], states, states[::2]):
                assert director._verified_delta(window, {}) == (None, ("steady", moved))

    def test_between_recovery_lines_commits_are_linear_and_levels_steady(self):
        from repro.simulator.hybrid import HybridDirector

        hydee = self.attached(HydEEProtocol(clusters=[[0, 1], [2, 3]]))
        sim, director = hydee.sim, HybridDirector(hydee.sim)

        def line(bump=lambda: None):
            # What one coordinated checkpoint of the world moves ...
            sim.storage.writes += 4
            sim.storage.bytes_written += 4096
            sim.control.messages_sent += 6
            bump()  # ... and what it may not leave behind.
            return director._epoch_state(line=True)

        lines = [line() for _ in range(3)]
        delta, mismatch = director._verified_delta(lines, {})
        assert mismatch is None
        assert delta["commits"] == {"writes": 4, "bytes": 4096,
                                    "control_messages": 6, "control_bytes": 0}
        # The checkpoint count is what a *probe window* holds steady, not a line.
        assert "checkpoints_taken" not in lines[0]["steady"]
        assert director._verified_delta(
            [director._epoch_state() for _ in range(2)] + [line()], {}
        ) == (None, ("steady", "checkpoints_taken"))
        for moved, bump in [
            ("pending_events", lambda: sim.engine.schedule(1.0, lambda: None)),
            ("log_memory[2]", lambda: hydee._ff_phantom_log.setdefault(2, {}).update({0: 64})),
        ]:
            window = [line(), line(), line(bump)]
            assert director._verified_delta(window, {}) == (None, ("steady", moved))

    def test_a_delivery_hook_is_message_state_even_undeclared(self):
        class CountsDeliveries(ClusteredProtocolBase):
            def on_app_deliver(self, rank, message):
                self.pstats.determinants_logged += 1

        class CountsDeliveriesUnclustered(ProtocolHooks):
            def on_app_deliver(self, rank, message):
                return None

        counts = self.attached(CountsDeliveries())
        assert counts.ff_send_hook is False  # no send or arrival hook of its own
        assert counts.ff_epoch_snapshot() is None
        assert self.attached(CountsDeliveriesUnclustered()).ff_epoch_snapshot() is None

    def test_protocols_with_message_state_keep_their_own_answer(self):
        # Message logging keeps a real, un-collected sender log: per message.
        assert self.attached(FullMessageLoggingProtocol()).ff_epoch_snapshot() is None
        # HydEE extrapolates its own linear epoch state (clock, RPP, log volume).
        hydee = self.attached(HydEEProtocol(clusters=[[0, 1], [2, 3]]))
        state = hydee.ff_epoch_snapshot()
        assert sorted(state) == [
            "hydee.date", "hydee.log_bytes", "hydee.log_entries", "hydee.phase",
            "hydee.rpp", "pstats",
        ]
        assert sorted(state["hydee.date"]) == sorted(state["hydee.phase"]) == [0, 1, 2, 3]
        assert state["pstats"] == hydee.pstats.as_dict()


class TestMessageLoggingFailure:
    @staticmethod
    def finished_ring():
        protocol = FullMessageLoggingProtocol()
        sim = Simulation(RingApplication(nprocs=4, iterations=1), nprocs=4, protocol=protocol)
        sim.run()
        return sim, protocol

    def test_a_resent_arrived_but_unmatched_message_is_delivered(self):
        """Survivor 1 had seqs 3 and 5 from rank 0 arrive (3 unmatched, in
        its unexpected queue; 5 stashed) when rank 0 fails: the purge drops
        3, so the re-executed send of seq 3 is the only copy left and must
        not read as a duplicate."""
        from repro.simulator.messages import Message

        sim, protocol = self.finished_ring()
        survivor = protocol.rank_state[1]
        survivor.recv_seq[0] = 2
        survivor.arrived_seq[0] = 3
        survivor.stash[0] = {5: Message(0, 1, 0, 8, piggyback={"seq": 5})}
        sim.ranks[1].unexpected.append(Message(0, 1, 0, 8, piggyback={"seq": 3}))
        protocol.on_failure([0], 0.0)
        assert not sim.ranks[1].unexpected
        resent = Message(0, 1, 0, 8, piggyback={"seq": 3})
        assert protocol.on_message_arrival(1, resent) is True
        assert survivor.arrived_seq[0] == 3 and 0 not in survivor.stash

    def test_a_resent_matched_but_undelivered_message_is_a_duplicate(self):
        """Survivor 1 matched seq 3 from rank 0 but has not delivered it to
        the application yet (recv_seq 2) when rank 0 fails: nothing of rank
        0's is queued, so the re-executed send of seq 3 is a duplicate."""
        from repro.simulator.messages import Message

        _sim, protocol = self.finished_ring()
        survivor = protocol.rank_state[1]
        survivor.recv_seq[0] = 2
        survivor.arrived_seq[0] = 3
        protocol.on_failure([0], 0.0)
        resent = Message(0, 1, 0, 8, piggyback={"seq": 3})
        assert protocol.on_message_arrival(1, resent) is False
        assert survivor.arrived_seq[0] == 3

    def test_a_seq_matched_past_a_queued_one_is_an_error(self):
        """Survivor 1 delivered seq 4 from rank 0 (a receive by tag matched
        it first) while seq 3 is still queued when rank 0 fails: lowering
        the watermark to 2 would accept the re-sent seq 4 twice, so the
        protocol refuses the out-of-order match loudly."""
        from repro.simulator.messages import Message

        sim, protocol = self.finished_ring()
        survivor = protocol.rank_state[1]
        survivor.recv_seq[0] = survivor.arrived_seq[0] = 4
        sim.ranks[1].unexpected.append(Message(0, 1, 0, 8, piggyback={"seq": 3}))
        with pytest.raises(ProtocolError, match="in-order matching"):
            protocol.on_failure([0], 0.0)


class TestPerfModel:
    def test_message_cost_logging_adds_memcpy_only(self):
        network = MyrinetMXModel()
        without = message_cost(network, 4096, logging=False)
        with_log = message_cost(network, 4096, logging=True)
        assert with_log.total_latency_s > without.total_latency_s
        assert with_log.logging_latency_s == pytest.approx(network.memcpy_time(4096))

    def test_piggyback_peak_at_plateau_boundary(self):
        network = MyrinetMXModel()
        # 32-byte payload + 12 piggyback bytes crosses the 3.3us -> 4us step.
        at_boundary = message_cost(network, 32, piggyback_bytes=12,
                                   policy=PiggybackPolicy.INLINE)
        far_from_boundary = message_cost(network, 8, piggyback_bytes=12,
                                         policy=PiggybackPolicy.INLINE)
        assert at_boundary.overhead_fraction > far_from_boundary.overhead_fraction

    def test_analytic_series_shape(self):
        series = analytic_pingpong_series(sizes=[1, 32, 1024, 1 << 20])
        assert len(series["sizes"]) == 4
        # Overheads are reported as non-positive "reduction" percentages.
        assert all(v <= 0.0 for v in series["latency_reduction_logging_pct"])
        # Large messages see (almost) no degradation.
        assert series["latency_reduction_logging_pct"][-1] > -2.5
        # Logging never helps latency.
        for no_log, log in zip(series["latency_reduction_no_logging_pct"],
                               series["latency_reduction_logging_pct"]):
            assert log <= no_log + 1e-9

    def test_iteration_overhead_estimate_small(self):
        network = MyrinetMXModel()
        estimate = iteration_overhead_estimate(
            network,
            messages_per_rank=4,
            message_bytes=1 << 20,
            logged_fraction=0.2,
            compute_seconds=5e-3,
        )
        assert 1.0 <= estimate < 1.05

