"""Unit tests for trace recording, stable storage, transport and failure injection."""

import dataclasses

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.simulator.channel import Transport
from repro.simulator.engine import SimulationEngine
from repro.simulator.failures import FailureEvent, FailureInjector
from repro.simulator.messages import Message
from repro.simulator.network import MyrinetMXModel
from repro.simulator.stable_storage import StableStorage
from repro.simulator.trace import SendSignature, TraceRecorder, compare_send_sequences


def _msg(source, dest, size=100, tag=0, payload=None):
    return Message(source=source, dest=dest, tag=tag, size_bytes=size, payload=payload)


class TestTraceRecorder:
    def test_channel_volumes_accumulate(self):
        trace = TraceRecorder()
        trace.record_send(_msg(0, 1, 100), 0.0)
        trace.record_send(_msg(0, 1, 50), 1.0)
        trace.record_send(_msg(1, 0, 10), 2.0)
        assert trace.channel_volumes[(0, 1)] == [2, 150]
        assert trace.channel_volumes[(1, 0)] == [1, 10]
        assert trace.total_bytes() == 160

    def test_communication_matrix(self):
        trace = TraceRecorder()
        trace.record_send(_msg(0, 2, 64), 0.0)
        matrix = trace.communication_matrix(3, weight="bytes")
        assert matrix[0, 2] == 64
        assert matrix.sum() == 64
        counts = trace.communication_matrix(3, weight="messages")
        assert counts[0, 2] == 1

    def test_suppressed_sends_not_counted_in_volumes_but_in_sequence(self):
        trace = TraceRecorder()
        trace.record_send(_msg(0, 1, 100, payload="a"), 0.0, suppressed=True)
        assert (0, 1) not in trace.channel_volumes
        assert len(trace.send_sequences[0]) == 1

    def test_replayed_sends_not_in_send_sequence(self):
        trace = TraceRecorder()
        message = _msg(0, 1, 100, payload="a")
        clone = message.clone_for_replay()
        trace.record_send(clone, 0.0)
        assert 0 not in trace.send_sequences

    def test_effective_sequence_without_restart_is_raw(self):
        trace = TraceRecorder()
        for i in range(3):
            trace.record_send(_msg(0, 1, 10, payload=i), float(i))
        assert trace.effective_send_sequence(0) == trace.send_sequences[0]

    def test_effective_sequence_with_restart_truncates_rolled_back_suffix(self):
        trace = TraceRecorder()
        for i in range(4):
            trace.record_send(_msg(0, 1, 10, payload=i), float(i))
        # Rank 0 rolls back to a checkpoint taken after its 2nd send, then
        # re-executes sends 2 and 3.
        trace.mark_restart(0, sends_at_checkpoint=2)
        for i in (2, 3):
            trace.record_send(_msg(0, 1, 10, payload=i), 10.0 + i)
        effective = trace.effective_send_sequence(0)
        assert [sig.payload_repr for sig in effective] == ["0", "1", "2", "3"]
        overlaps = trace.reexecution_overlaps(0)
        assert len(overlaps) == 1
        original, reexecuted = overlaps[0]
        assert original == reexecuted

    def test_same_checkpoint_restored_twice(self):
        trace = TraceRecorder()
        for i in range(4):
            trace.record_send(_msg(0, 1, 10, payload=i), float(i))
        # Two rollbacks to the checkpoint taken after send 2: the first
        # re-execution gets as far as send 3, the second as far as send 5.
        trace.mark_restart(0, sends_at_checkpoint=2)
        for i in (2, 3):
            trace.record_send(_msg(0, 1, 10, payload=i), 10.0 + i)
        trace.mark_restart(0, sends_at_checkpoint=2)
        for i in (2, 3, 4, 5):
            trace.record_send(_msg(0, 1, 10, payload=i), 20.0 + i)
        effective = trace.effective_send_sequence(0)
        assert [sig.payload_repr for sig in effective] == ["0", "1", "2", "3", "4", "5"]
        overlaps = trace.reexecution_overlaps(0)
        assert [([s.payload_repr for s in o], [s.payload_repr for s in r])
                for o, r in overlaps] == [(["2", "3"], ["2", "3"]), (["2", "3"], ["2", "3"])]

    def test_restore_of_a_checkpoint_taken_after_a_rollback(self):
        trace = TraceRecorder()
        for i in range(4):
            trace.record_send(_msg(0, 1, 10, payload=i), float(i))
        trace.mark_restart(0, sends_at_checkpoint=2)
        for i in (2, 3, 4, 5, 6):
            trace.record_send(_msg(0, 1, 10, payload=i), 10.0 + i)
        # The re-execution checkpointed after its logical send 6 (its raw
        # send 8) and rolls back to that checkpoint.
        trace.mark_restart(0, sends_at_checkpoint=6)
        for i in (6, 7):
            trace.record_send(_msg(0, 1, 10, payload=i), 20.0 + i)
        effective = trace.effective_send_sequence(0)
        assert [sig.payload_repr for sig in effective] == [str(i) for i in range(8)]
        overlaps = trace.reexecution_overlaps(0)
        assert [([s.payload_repr for s in o], [s.payload_repr for s in r])
                for o, r in overlaps] == [(["2", "3"], ["2", "3"]), (["6"], ["6"])]

    def test_compare_send_sequences_detects_divergence(self):
        a, b = TraceRecorder(), TraceRecorder()
        a.record_send(_msg(0, 1, 10, payload="x"), 0.0)
        b.record_send(_msg(0, 1, 10, payload="y"), 0.0)
        assert compare_send_sequences(a, b) == {0: (1, 1)}
        b2 = TraceRecorder()
        b2.record_send(_msg(0, 1, 10, payload="x"), 0.0)
        assert compare_send_sequences(a, b2) == {}

    def test_send_signature_ignores_timing(self):
        sig_a = SendSignature.from_message(_msg(0, 1, 10, tag=3, payload="p"))
        sig_b = SendSignature.from_message(_msg(0, 1, 10, tag=3, payload="p"))
        assert sig_a == sig_b


class TestStableStorage:
    def test_checkpoint_state_is_isolated_copy(self):
        storage = StableStorage()
        state = {"values": [1, 2, 3]}
        record = storage.save(rank=0, iteration=2, app_state=state, time=1.0)
        state["values"].append(4)
        restored = record.restore_app_state()
        assert restored == {"values": [1, 2, 3]}
        restored["values"].append(99)
        assert record.restore_app_state() == {"values": [1, 2, 3]}

    def test_latest_and_latest_common_iteration(self):
        storage = StableStorage()
        storage.save(rank=0, iteration=2, app_state={}, time=0.0)
        storage.save(rank=0, iteration=4, app_state={}, time=1.0)
        storage.save(rank=1, iteration=2, app_state={}, time=0.0)
        assert storage.latest(0).iteration == 4
        assert storage.latest_common_iteration([0, 1]) == 2
        assert storage.latest_common_iteration([0, 2]) is None

    def test_checkpoint_at_returns_most_recent_record_for_iteration(self):
        storage = StableStorage()
        storage.save(rank=0, iteration=2, app_state={"gen": 1}, time=0.0)
        storage.save(rank=0, iteration=2, app_state={"gen": 2}, time=5.0)
        assert storage.checkpoint_at(0, 2).restore_app_state() == {"gen": 2}
        with pytest.raises(SimulationError):
            storage.checkpoint_at(0, 7)

    def test_write_cost_and_accounting(self):
        storage = StableStorage(write_bandwidth_bytes_per_s=1e9)
        assert storage.write_cost(1e9) == pytest.approx(1.0)
        storage.save(rank=0, iteration=1, app_state={}, time=0.0, size_bytes=100)
        assert storage.bytes_written == 100
        assert storage.writes == 1
        free = StableStorage(write_bandwidth_bytes_per_s=None)
        assert free.write_cost(1e9) == 0.0


class TestTransport:
    def _make(self):
        engine = SimulationEngine()
        delivered = []
        transport = Transport(engine, MyrinetMXModel(), delivered.append)
        return engine, transport, delivered

    def test_fifo_no_overtaking_on_same_channel(self):
        engine, transport, delivered = self._make()
        big = _msg(0, 1, 8 << 20)
        small = _msg(0, 1, 1)
        transport.transmit(big)
        transport.transmit(small)
        engine.run()
        assert [m.msg_id for m in delivered] == [big.msg_id, small.msg_id]

    def test_small_message_may_overtake_on_other_channel(self):
        engine, transport, delivered = self._make()
        big = _msg(0, 1, 8 << 20)
        small = _msg(0, 2, 1)
        transport.transmit(big)
        transport.transmit(small)
        engine.run()
        assert [m.msg_id for m in delivered] == [small.msg_id, big.msg_id]

    def test_delivers_to_exactly_one_target(self):
        with pytest.raises(SimulationError):
            Transport(SimulationEngine(), MyrinetMXModel())
        with pytest.raises(SimulationError):
            Transport(SimulationEngine(), MyrinetMXModel(), lambda _m: None, ranks={})

    def test_in_flight_tracking_and_drop(self):
        engine, transport, delivered = self._make()
        transport.transmit(_msg(0, 1, 100))
        transport.transmit(_msg(2, 3, 100))
        assert transport.in_flight_within({0, 1, 2, 3}) == 2
        assert transport.in_flight_within({0, 1}) == 1
        dropped = transport.drop_messages(involving={1})
        assert len(dropped) == 1
        engine.run()
        assert len(delivered) == 1


class TestFailureInjector:
    def test_event_validation(self):
        with pytest.raises(ConfigurationError):
            FailureEvent(ranks=[], time=1.0)
        with pytest.raises(ConfigurationError):
            FailureEvent(ranks=[1])  # neither time nor iteration
        with pytest.raises(ConfigurationError):
            FailureEvent(ranks=[1], time=1.0, at_iteration=2)  # both
        with pytest.raises(ConfigurationError):
            FailureEvent(ranks=[1, 1], time=1.0)  # duplicate ranks
        with pytest.raises(ConfigurationError):
            FailureEvent(ranks=[0], time=float("inf"))

    def test_time_triggered_failure_kills_rank(self, ring8):
        from tests.conftest import run_simulation
        from repro.ftprotocols.coordinated import CoordinatedCheckpointProtocol

        injector = FailureInjector([FailureEvent(ranks=[3], time=20e-6)])
        protocol = CoordinatedCheckpointProtocol(checkpoint_interval=2,
                                                 checkpoint_size_bytes=1024)
        result, sim = run_simulation(ring8(4), 8, protocol=protocol, failures=injector)
        assert result.completed
        assert injector.failed_ranks == {3}
        assert result.stats.failures_injected == 1

    def test_iteration_triggered_failure(self, ring8, hydee16):
        # covered extensively by integration tests; here just the trigger:
        # the event keeps it as written, the injector resolves it.
        injector = FailureInjector([FailureEvent(ranks=[0], at_iteration=2)])
        assert injector.events[0].rank_trigger is None
        assert injector.triggers == {0: 0}
        assert injector.status == ["pending"]
        assert not injector.failure_times


class TestDeadTriggerRetargeting:
    """An iteration-triggered event whose trigger rank died for good must be
    re-triggered on a surviving rank of the event (or disarmed when none
    survives); otherwise the event can never fire and the run never settles."""

    @staticmethod
    def _compute_only_app(nprocs, iterations):
        """Communication-free workload: ranks progress independently, so the
        survivors keep completing iterations after a peer dies."""
        from repro.workloads.base import Application

        class _ComputeOnlyApp(Application):
            name = "compute-only"

            def setup(self, rank, nprocs):
                return {"done": 0}

            def iteration(self, comm, rank, state, it):
                # Rank 0 is deliberately slow so tests can kill it before it
                # reaches boundaries the other ranks already passed.
                yield from comm.compute(100.0e-6 if rank == 0 else 7.0e-6)
                state["done"] += 1

        return _ComputeOnlyApp(nprocs=nprocs, iterations=iterations)

    def _sim(self, events, nprocs=4, iterations=4):
        from repro.simulator.simulation import Simulation, SimulationConfig

        app = self._compute_only_app(nprocs, iterations)
        injector = FailureInjector(events)
        sim = Simulation(
            app,
            nprocs=nprocs,
            failures=injector,
            # No protocol: failed ranks stay dead, the run ends incomplete.
            config=SimulationConfig(raise_on_incomplete=False),
        )
        return sim, injector

    def test_event_retargets_to_next_surviving_rank(self):
        events = [
            FailureEvent(ranks=[0], time=5e-6),
            FailureEvent(ranks=[0, 2], at_iteration=2),  # trigger = rank 0
        ]
        sim, injector = self._sim(events)
        sim.run()
        # Rank 0 died first; the iteration event re-triggered on rank 2 and
        # fired when rank 2 completed iteration 2.
        assert injector.retargeted_events == 1
        assert injector.triggers[1] == 2
        assert injector.status == ["fired", "fired"]
        assert events[1].rank_trigger is None  # the event itself is untouched
        assert injector.failed_ranks == {0, 2}
        assert len(injector.failure_times) == 2

    def test_retargeting_is_per_run(self):
        # The re-targeted trigger lives in the injector: a second run over
        # the same events starts from the trigger as written again.
        events = (
            FailureEvent(ranks=[0], time=5e-6),
            FailureEvent(ranks=[0, 2], at_iteration=2),
        )
        runs = []
        for _ in range(2):
            sim, injector = self._sim(events)
            sim.run()
            runs.append((injector.retargeted_events, injector.triggers,
                         injector.failure_times, injector.status))
        assert runs[0] == runs[1]
        assert runs[0][0] == 1

    def test_event_disarmed_when_no_rank_survives(self):
        events = [
            FailureEvent(ranks=[1], time=5e-6),
            FailureEvent(ranks=[1], at_iteration=3),
        ]
        sim, injector = self._sim(events)
        sim.run()
        assert injector.disarmed_events == 1
        assert injector.status[1] == "disarmed"  # not pending forever
        assert len(injector.failure_times) == 1
        assert injector.armed_fires == 0

    def test_retarget_fires_immediately_when_survivor_already_past_boundary(self):
        # Rank 0 dies only after rank 2 has certainly completed iteration 1
        # (time-based kill late in the run): the re-targeted event must fire
        # right away instead of waiting for an iteration that already passed.
        events = [
            FailureEvent(ranks=[0], time=60e-6),
            FailureEvent(ranks=[0, 2], at_iteration=1, rank_trigger=0),
        ]
        sim, injector = self._sim(events, iterations=50)
        sim.run()
        assert injector.retargeted_events == 1
        assert injector.status[1] == "fired"
        assert 2 in injector.failed_ranks
        assert injector.armed_fires == 0

    def test_restarted_trigger_is_left_alone(self, ring8):
        # Under a protocol that rolls the failed rank back, the trigger is
        # alive again by the end of the failure handling: the event must NOT
        # be re-targeted, it will fire when the rank re-reaches the boundary.
        from tests.conftest import run_simulation
        from repro.ftprotocols.coordinated import CoordinatedCheckpointProtocol

        events = [
            FailureEvent(ranks=[3], time=20e-6),
            FailureEvent(ranks=[5], at_iteration=3, rank_trigger=3),
        ]
        injector = FailureInjector(events)
        protocol = CoordinatedCheckpointProtocol(checkpoint_interval=2,
                                                 checkpoint_size_bytes=1024)
        result, sim = run_simulation(ring8(6), 8, protocol=protocol, failures=injector)
        assert result.completed
        assert injector.retargeted_events == 0
        assert injector.triggers[1] == 3
        assert injector.status[1] == "fired"
        assert injector.failed_ranks == {3, 5}


class TestFailureEventValidation:
    """PR-5 validation hardening: malformed events are configuration errors."""

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureEvent(ranks=[1], time=-1e-6)

    def test_non_finite_time_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError):
                FailureEvent(ranks=[1], time=bad)

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureEvent(ranks=[2, 3, 2], time=1e-6)

    def test_zero_time_still_legal(self):
        assert FailureEvent(ranks=[0], time=0.0).time == 0.0

    def test_event_is_frozen(self):
        event = FailureEvent(ranks=[1, 2], at_iteration=3)
        assert event.ranks == (1, 2)
        for name in ("ranks", "time", "at_iteration", "rank_trigger"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(event, name, None)

    def test_cross_rank_trigger_still_legal_at_event_level(self):
        # "Kill rank 5 when rank 3 completes iteration 2" stays a supported
        # simulator-level harness tool (a ScenarioSpec is stricter, see
        # test_scenarios).
        event = FailureEvent(ranks=[5], at_iteration=2, rank_trigger=3)
        assert event.rank_trigger == 3

    @pytest.mark.parametrize("bad", [-3, 0, 2.5, True])
    def test_at_iteration_must_be_a_positive_int(self, bad):
        # Iteration counts start at 1; a float or a bool is a typo, not a count.
        with pytest.raises(ConfigurationError, match="at_iteration"):
            FailureEvent(ranks=[1], at_iteration=bad)

    def test_rank_trigger_on_a_timed_event_rejected(self):
        # Only an iteration boundary has a trigger rank; a timed strike would
        # silently ignore it.
        with pytest.raises(ConfigurationError, match="rank_trigger"):
            FailureEvent(ranks=[1], time=1e-6, rank_trigger=1)

    def test_at_iteration_past_the_run_rejected_at_attach(self):
        # No rank completes iteration 5 of a 4-iteration run: the strike
        # could silently never fire.
        from repro.simulator.simulation import Simulation

        app = TestDeadTriggerRetargeting._compute_only_app(4, 4)
        with pytest.raises(ConfigurationError, match="at_iteration 5"):
            Simulation(app, nprocs=4,
                       failures=FailureInjector([FailureEvent(ranks=[1], at_iteration=5)]))
        # The last iteration itself is a legal trigger.
        Simulation(app, nprocs=4,
                   failures=FailureInjector([FailureEvent(ranks=[1], at_iteration=4)]))


class TestInjectorHealthMetrics:
    """The injector's health counters surface as sim.injector.* metrics."""

    def test_counters_surface_for_runs_with_an_injector(self, ring8):
        from tests.conftest import run_simulation
        from repro.ftprotocols.coordinated import CoordinatedCheckpointProtocol

        injector = FailureInjector([FailureEvent(ranks=[3], time=20e-6)])
        protocol = CoordinatedCheckpointProtocol(checkpoint_interval=2,
                                                 checkpoint_size_bytes=1024)
        result, _ = run_simulation(ring8(4), 8, protocol=protocol, failures=injector)
        assert result.metric("sim.injector.failed_ranks") == 1
        assert result.metric("sim.injector.armed_fires") == 0
        assert result.metric("sim.injector.disarmed_events") == 0
        assert result.metric("sim.injector.retargeted_events") == 0

    def test_no_injector_no_injector_namespace(self, ring8):
        from tests.conftest import run_simulation

        result, _ = run_simulation(ring8(3), 8)
        assert "sim.injector" not in result.metrics

    def test_disarm_and_retarget_counters_surface(self):
        # Reuse the compute-only retargeting scenario: rank 1 dies, its
        # pending iteration event has no survivor -> disarmed.
        from repro.simulator.simulation import Simulation, SimulationConfig

        app = TestDeadTriggerRetargeting._compute_only_app(4, 4)
        injector = FailureInjector([
            FailureEvent(ranks=[1], time=5e-6),
            FailureEvent(ranks=[1], at_iteration=3),
        ])
        sim = Simulation(app, nprocs=4, failures=injector,
                         config=SimulationConfig(raise_on_incomplete=False))
        result = sim.run()
        assert result.metric("sim.injector.disarmed_events") == 1
        assert result.metric("sim.injector.failed_ranks") == 1


class TestRepeatedAndOverlappingFailures:
    """Stochastic traces re-fail restarted ranks and strike inside an
    active recovery session."""

    def test_restarted_rank_can_fail_again(self, ring8):
        from tests.conftest import run_simulation
        from repro.ftprotocols.coordinated import CoordinatedCheckpointProtocol

        injector = FailureInjector([
            FailureEvent(ranks=[3], time=20e-6),
            FailureEvent(ranks=[3], time=500e-6),
        ])
        protocol = CoordinatedCheckpointProtocol(checkpoint_interval=2,
                                                 checkpoint_size_bytes=1024)
        result, _ = run_simulation(ring8(6), 8, protocol=protocol, failures=injector)
        assert result.completed
        # Both strikes landed even though they hit the same rank.
        assert result.stats.failures_injected == 2
        assert len(injector.failure_times) == 2
        assert injector.failed_ranks == {3}

    def test_strike_during_recovery_joins_the_session(self, stencil16):
        from tests.conftest import run_simulation
        from repro.core.protocol import HydEEProtocol

        # The second failure lands 5us after the first, inside HydEE's
        # recovery session: it strikes at its own time and joins the session.
        injector = FailureInjector([
            FailureEvent(ranks=[5], time=100e-6),
            FailureEvent(ranks=[9], time=105e-6),
        ])
        protocol = HydEEProtocol(
            clusters=[[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]],
            checkpoint_interval=2,
            checkpoint_size_bytes=16 * 1024,
        )
        result, _ = run_simulation(stencil16(8), 16, protocol=protocol,
                                   failures=injector)
        assert injector.failure_times == [100e-6, 105e-6]
        [report] = protocol.recovery_reports
        assert set(report["rolled_back_ranks"]) >= set(range(4, 12))
        assert result.completed

    def test_strike_armed_by_the_last_iteration_holds_completion_open(self):
        # The slowest rank's last iteration arms the strike, so every rank
        # is done before it lands: the run must not be declared complete
        # under it.
        from repro.simulator.simulation import Simulation, SimulationConfig

        app = TestDeadTriggerRetargeting._compute_only_app(2, 4)
        injector = FailureInjector([FailureEvent(ranks=[0], at_iteration=4)])
        sim = Simulation(app, nprocs=2, failures=injector,
                         config=SimulationConfig(raise_on_incomplete=False))
        result = sim.run()
        assert result.stats.failures_injected == 1
        assert injector.failed_ranks == {0}
        assert injector.armed_fires == 0

    def test_out_of_range_ranks_rejected_at_attach(self):
        from repro.simulator.simulation import Simulation

        app = TestDeadTriggerRetargeting._compute_only_app(4, 2)
        injector = FailureInjector([FailureEvent(ranks=[99], time=1e-6)])
        with pytest.raises(ConfigurationError):
            Simulation(app, nprocs=4, failures=injector)

    def test_out_of_range_trigger_rejected_at_attach(self):
        from repro.simulator.simulation import Simulation

        app = TestDeadTriggerRetargeting._compute_only_app(4, 2)
        injector = FailureInjector(
            [FailureEvent(ranks=[1], at_iteration=2, rank_trigger=99)]
        )
        with pytest.raises(ConfigurationError):
            Simulation(app, nprocs=4, failures=injector)
