"""Unit tests for HydEE's building blocks: phase clock, RPP table, sender log,
per-rank state, configuration and the recovery orchestrator (Algorithm 4)."""

import pytest

from repro.core.config import HydEEConfig
from repro.core.message_log import SenderLog
from repro.core.phase import INITIAL_PHASE, PhaseClock
from repro.core.recovery_process import NOTIFY_SEND_LOG, NOTIFY_SEND_MSG, RecoveryOrchestrator
from repro.core.rpp import RPPTable
from repro.core.state import HydEERankState
from repro.errors import ConfigurationError, ProtocolError
from repro.simulator.messages import Message


class TestPhaseClock:
    def test_initial_values_match_paper(self):
        clock = PhaseClock()
        assert clock.date == 0
        assert clock.phase == INITIAL_PHASE == 1

    def test_send_increments_date_not_phase(self):
        clock = PhaseClock()
        date, phase = clock.on_send()
        assert (date, phase) == (1, 1)
        date, phase = clock.on_send()
        assert (date, phase) == (2, 1)

    def test_inter_cluster_delivery_bumps_phase_past_message(self):
        clock = PhaseClock()
        clock.on_deliver_inter(message_phase=1)
        assert clock.phase == 2  # max(1, 1+1), line 12 of Algorithm 1
        clock.on_deliver_inter(message_phase=1)
        assert clock.phase == 2  # already ahead
        clock.on_deliver_inter(message_phase=5)
        assert clock.phase == 6

    def test_intra_cluster_delivery_takes_max_only(self):
        clock = PhaseClock()
        clock.on_deliver_intra(message_phase=4)
        assert clock.phase == 4  # line 16 of Algorithm 1
        clock.on_deliver_intra(message_phase=2)
        assert clock.phase == 4

    def test_delivery_increments_date(self):
        clock = PhaseClock()
        clock.on_send()
        clock.on_deliver_intra(1)
        clock.on_deliver_inter(1)
        assert clock.date == 3

    def test_figure4_scenario_phases(self):
        # Reproduce the phase numbers annotated on Figure 4 of the paper for
        # process p5: initial phase 1, receives inter-cluster m3 of phase 2 ->
        # phase 3.
        p5 = PhaseClock()
        p5.on_deliver_inter(message_phase=2)
        assert p5.phase == 3

    def test_snapshot_roundtrip(self):
        clock = PhaseClock(date=7, phase=3)
        restored = PhaseClock.from_snapshot(clock.snapshot())
        assert (restored.date, restored.phase) == (7, 3)

    def test_reset(self):
        clock = PhaseClock(date=7, phase=3)
        clock.reset()
        assert (clock.date, clock.phase) == (0, INITIAL_PHASE)


class TestRPPTable:
    def test_observe_and_maxdate(self):
        rpp = RPPTable()
        rpp.observe(sender=3, send_date=5, phase=2)
        rpp.observe(sender=3, send_date=9, phase=3)
        assert rpp.max_date(3) == 9
        assert rpp.max_date(4) == 0

    def test_orphan_entries_after_restart_date(self):
        rpp = RPPTable()
        for date, phase in [(2, 1), (5, 2), (9, 3)]:
            rpp.observe(sender=1, send_date=date, phase=phase)
        assert rpp.orphan_entries(1, sender_restart_date=4) == [(5, 2), (9, 3)]
        assert rpp.orphan_entries(1, sender_restart_date=9) == []
        assert rpp.orphan_entries(2, sender_restart_date=0) == []

    def test_prune_channel(self):
        rpp = RPPTable()
        for date in (1, 2, 3, 4):
            rpp.observe(sender=0, send_date=date, phase=1)
        removed = rpp.prune_channel(0, up_to_date=2)
        assert removed == 2
        assert rpp.entry_count() == 2
        assert rpp.max_date(0) == 4

    def test_snapshot_roundtrip(self):
        rpp = RPPTable()
        rpp.observe(sender=2, send_date=4, phase=2)
        restored = RPPTable.from_snapshot(rpp.snapshot())
        assert restored.max_date(2) == 4
        assert restored.orphan_entries(2, 0) == [(4, 2)]
        assert RPPTable.from_snapshot(None).entry_count() == 0


class TestSenderLog:
    def _msg(self, dest, size=100):
        return Message(source=0, dest=dest, tag=1, size_bytes=size, payload="x")

    def test_add_and_entries_for(self):
        log = SenderLog()
        log.add(dest=1, date=3, phase=1, message=self._msg(1))
        log.add(dest=1, date=7, phase=2, message=self._msg(1))
        log.add(dest=2, date=8, phase=2, message=self._msg(2))
        assert len(log) == 3
        entries = log.entries_for(dest=1, after_date=3)
        assert [e.date for e in entries] == [7]
        assert log.entries_for(dest=1, after_date=0) == log.entries_for(1, -1)

    def test_purge_acknowledged_frees_bytes(self):
        log = SenderLog()
        log.add(dest=1, date=3, phase=1, message=self._msg(1, 100))
        log.add(dest=1, date=7, phase=2, message=self._msg(1, 50))
        freed = log.purge_acknowledged(dest=1, up_to_date=3)
        assert freed == 100
        assert log.current_bytes == 50

    def test_snapshot_roundtrip_preserves_entries(self):
        log = SenderLog()
        log.add(dest=1, date=3, phase=1, message=self._msg(1))
        snapshot = log.snapshot()
        restored = SenderLog.from_snapshot(snapshot)
        assert len(restored) == 1
        entry = restored.entries[0]
        assert (entry.dest, entry.date, entry.phase) == (1, 3, 1)
        # Snapshots structurally share the (immutable) entries; replaying a
        # restored entry still goes through Message.clone_for_replay.
        assert entry.message.clone_for_replay().replayed
        assert not entry.message.replayed

    def test_snapshot_isolated_from_later_log_mutations(self):
        log = SenderLog()
        log.add(dest=1, date=3, phase=1, message=self._msg(1))
        snapshot = log.snapshot()
        log.add(dest=1, date=9, phase=2, message=self._msg(1))
        log.purge_acknowledged(dest=1, up_to_date=3)
        assert len(SenderLog.from_snapshot(snapshot)) == 1
        assert SenderLog.from_snapshot(snapshot).entries[0].date == 3


class TestHydEERankState:
    def test_checkpoint_payload_roundtrip(self):
        state = HydEERankState(rank=1, cluster=0)
        state.clock.on_send()
        state.rpp.observe(sender=5, send_date=2, phase=1)
        state.log.add(dest=5, date=1, phase=1,
                      message=Message(source=1, dest=5, tag=0, size_bytes=10))
        payload = state.checkpoint_payload()
        state.clock.on_send()
        state.restore(payload)
        assert state.clock.date == 1
        assert state.rpp.max_date(5) == 2
        assert len(state.log) == 1

    def test_restore_none_resets(self):
        state = HydEERankState(rank=1, cluster=0)
        state.clock.on_send()
        state.restore(None)
        assert state.clock.date == 0
        assert state.rpp.entry_count() == 0
        assert len(state.log) == 0

    def test_recovery_gate_logic(self):
        state = HydEERankState(rank=1, cluster=0)
        recovery = state.begin_recovery(rolled_back=True)
        recovery.awaiting_lastdate_from = {2, 3}
        assert not recovery.gate_open()
        recovery.notify_send_received = True
        assert not recovery.gate_open()  # still waiting for LastDate
        recovery.awaiting_lastdate_from.clear()
        assert recovery.gate_open()
        state.end_recovery()
        assert not state.in_recovery

    def test_non_rolled_back_gate_only_needs_notify(self):
        state = HydEERankState(rank=1, cluster=0)
        recovery = state.begin_recovery(rolled_back=False)
        assert not recovery.gate_open()
        recovery.notify_send_received = True
        assert recovery.gate_open()


class TestHydEEConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HydEEConfig(piggyback_bytes=-1)
        with pytest.raises(ConfigurationError):
            HydEEConfig(checkpoint_interval=0)
        with pytest.raises(ConfigurationError):
            HydEEConfig(checkpoint_size_bytes=-5)


class TestRecoveryOrchestrator:
    def _make(self, ranks=(0, 1, 2)):
        notifications = []
        orchestrator = RecoveryOrchestrator(
            expected_ranks=ranks,
            notify=lambda kind, rank, phase: notifications.append((kind, rank, phase)),
            rolled_back_ranks=[0],
        )
        return orchestrator, notifications

    def _report_all(self, orchestrator, logs=None, orphans=None, phases=None):
        logs = logs or {}
        orphans = orphans or {}
        phases = phases or {}
        for rank in sorted(orchestrator.expected_ranks):
            orchestrator.handle("log_report", rank, {"phases": logs.get(rank, [])})
            orchestrator.handle("orphan_report", rank, {"phases": orphans.get(rank, [])})
            orchestrator.handle("own_phase", rank, {"phase": phases.get(rank, 1)})

    def test_no_orphans_releases_everything_immediately(self):
        orchestrator, notifications = self._make()
        self._report_all(orchestrator, logs={1: [2]}, phases={0: 1, 1: 3, 2: 2})
        kinds = [n[0] for n in notifications]
        assert kinds.count(NOTIFY_SEND_MSG) == 3
        assert kinds.count(NOTIFY_SEND_LOG) == 1
        assert orchestrator.complete

    def test_notifications_wait_for_all_reports(self):
        orchestrator, notifications = self._make()
        orchestrator.handle("log_report", 0, {"phases": []})
        orchestrator.handle("orphan_report", 0, {"phases": []})
        orchestrator.handle("own_phase", 0, {"phase": 1})
        assert notifications == []  # ranks 1 and 2 have not reported yet

    def test_phase_gating_respects_lower_phase_orphans(self):
        orchestrator, notifications = self._make()
        # Rank 1 has delivered two orphan messages of phase 2; rank 2 sits in
        # phase 3 and must not be released until they are regenerated.
        self._report_all(
            orchestrator,
            logs={1: [2], 2: [4]},
            orphans={1: [2, 2]},
            phases={0: 1, 1: 2, 2: 3},
        )
        released = {(kind, rank) for kind, rank, _ in notifications}
        assert (NOTIFY_SEND_MSG, 0) in released      # phase 1 <= lowest orphan phase
        assert (NOTIFY_SEND_MSG, 1) in released      # phase 2 == orphan phase (not blocked)
        assert (NOTIFY_SEND_MSG, 2) not in released  # blocked by phase-2 orphans
        assert (NOTIFY_SEND_LOG, 2) not in released  # log phase 4 blocked as well
        assert not orchestrator.complete

        orchestrator.handle("orphan_notification", 0, {"phase": 2})
        assert (NOTIFY_SEND_MSG, 2) not in {(k, r) for k, r, _ in notifications}
        orchestrator.handle("orphan_notification", 0, {"phase": 2})
        released = {(kind, rank) for kind, rank, _ in notifications}
        assert (NOTIFY_SEND_MSG, 2) in released
        assert (NOTIFY_SEND_LOG, 2) in released
        assert orchestrator.complete

    def test_unexpected_orphan_notification_raises(self):
        orchestrator, _ = self._make()
        self._report_all(orchestrator)
        assert orchestrator.complete
        with pytest.raises(ProtocolError):
            orchestrator.handle("orphan_notification", 0, {"phase": 1})

    def test_unknown_message_kind_rejected(self):
        orchestrator, _ = self._make()
        with pytest.raises(ProtocolError):
            orchestrator.handle("bogus", 0, {})
