"""HydEE protocol implementation (Algorithms 1-4 of the paper).

Failure-free path (Algorithm 1)
-------------------------------
Every application message carries the sender's ``(date, phase)``; the payload
of inter-cluster messages is copied into the sender's volatile log; clusters
take coordinated checkpoints (handled by
:class:`repro.ftprotocols.base.ClusteredProtocolBase`) that embed the clock,
the RPP table and the log.  No event (determinant) is ever written.

Recovery path (Algorithms 2-4)
------------------------------
On a failure the protocol

1. rolls back the failed processes' clusters to their last coordinated
   checkpoint (other clusters are untouched -- failure containment),
2. has each rolled back process send a ``Rollback`` notification to every
   process outside its cluster and report its restored phase to the recovery
   process,
3. has every process compute, from its RPP table and sender log, the orphan
   messages and the logged messages to replay for each rolled back peer, and
   report their phases to the recovery process,
4. lets the recovery process release logged-message replays and first sends
   phase by phase, never before all orphan messages of lower phases have been
   regenerated (suppressed) by their rolled back senders.

A failure during an active session joins it (the paper allows several
concurrent failures): the union of the struck clusters and the clusters the
session rolled back rolls back, and one fresh session recovers the union.
Session-scoped control messages carry the session number, so the replaced
session's messages still in flight are dropped on arrival, and sends parked
on its gates are re-gated by the new session.

Clarification w.r.t. the paper's pseudo-code
--------------------------------------------
Algorithm 2 line 6 sends only the restart *date* of the rolled back process.
Two different pieces of information are actually needed by the receivers of
that notification (both derivable from the restored checkpoint, so this is a
presentation shortcut of the paper, not a protocol change):

* the restart date (the rolled back process's own event counter), used to
  find **orphan** entries in the receivers' RPP tables (Algorithm 3 line 13);
* per destination, the send-date of the last message *from that destination*
  included in the restored state (the checkpointed ``RPP.Maxdate``), used by
  the destination to select which **logged messages** to replay (Algorithm 3
  line 10) -- log entries are indexed by the *sender's* dates, so they cannot
  be compared against the rolled back process's own counter.

Our ``Rollback`` notification therefore carries both values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.phase import INITIAL_PHASE
from repro.core.recovery_process import (
    NOTIFY_SEND_LOG,
    NOTIFY_SEND_MSG,
    RecoveryOrchestrator,
)
from repro.core.state import HydEERankState
from repro.errors import ConfigurationError, ProtocolError
from repro.ftprotocols.base import ClusteredProtocolBase
from repro.simulator.engine import Condition
from repro.simulator.messages import Message
from repro.simulator.network import PiggybackPolicy
from repro.simulator.protocol_api import (
    RECOVERY_PROCESS,
    ControlMessage,
    EpochState,
    SendDecision,
    add_metric,
)
from repro.simulator.stable_storage import CheckpointRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.simulation import Simulation


class HydEEProtocol(ClusteredProtocolBase):
    """The paper's hybrid rollback-recovery protocol."""

    name = "hydee"
    ff_send_hook = True

    #: How the (date, phase) pair travels: the paper's prototype inlines it
    #: in messages below 1 KiB and ships it as a separate message above that
    #: threshold (Section V-A).
    PIGGYBACK_POLICY = PiggybackPolicy.INLINE_SMALL_SEPARATE_LARGE

    def __init__(
        self,
        clusters: Optional[Sequence[Sequence[int]]] = None,
        checkpoint_interval: Optional[int] = None,
        checkpoint_size_bytes: int = 16 * 1024 * 1024,
        piggyback_bytes: int = 12,
        log_all_messages: bool = False,
    ) -> None:
        """Create the protocol.

        ``clusters`` partitions the ranks (``None``: a single cluster, which
        degenerates to coordinated checkpointing with no logging; use
        :mod:`repro.clustering` to compute a partition from the application's
        communication graph as the paper does with [28]).
        ``checkpoint_interval`` takes a coordinated cluster checkpoint every N
        iterations (``None``: never, as in the failure-free Figures 5 and 6);
        ``checkpoint_size_bytes`` is the simulated size of one process image,
        logs excluded.  ``piggyback_bytes`` is the wire size of the
        piggybacked date and phase (two integers plus framing).
        ``log_all_messages`` logs every payload regardless of clusters: the
        "Message Logging" configuration of Figure 6, with unchanged
        containment semantics.
        """
        if piggyback_bytes < 0:
            raise ConfigurationError("piggyback_bytes must be >= 0")
        super().__init__(
            clusters=clusters,
            checkpoint_interval=checkpoint_interval,
            checkpoint_size_bytes=checkpoint_size_bytes,
        )
        self.piggyback_bytes = piggyback_bytes
        self.log_all_messages = log_all_messages
        self.states: Dict[int, HydEERankState] = {}
        self.orchestrator: Optional[RecoveryOrchestrator] = None
        self.recovery_reports: List[Dict[str, Any]] = []
        #: (cluster, iteration, rank) -> {sender: max delivered date} pending
        #: garbage-collection acknowledgements (sent when the whole cluster's
        #: checkpoint is complete).
        self._pending_gc_acks: Dict[tuple, Dict[int, int]] = {}
        self._control_handlers: Optional[Dict[str, Any]] = None
        #: rank -> dest -> *phantom* logged bytes: payloads of messages
        #: skipped by a batched fast-forward epoch.  Their entries are never
        #: materialised (the epoch ends on a recovery line, so they can never
        #: be replayed), but their bytes must keep flowing through checkpoint
        #: sizes, memory usage and garbage-collection accounting so the
        #: counters stay identical to exact execution.
        self._ff_phantom_log: Dict[int, Dict[int, int]] = {}
        #: message size -> :meth:`_price_send` result.
        self._send_costs: Dict[int, Tuple[int, SendDecision, SendDecision]] = {}
        #: number of recovery sessions started; session-scoped control
        #: messages carry it, and a later session drops an earlier one's.
        self.session = 0

    # ------------------------------------------------------------- lifecycle
    def attach(self, sim: "Simulation") -> None:
        super().attach(sim)
        if not getattr(sim.application, "send_deterministic", True):
            raise ConfigurationError(
                "HydEE requires a send-deterministic application "
                f"({sim.application!r} declares send_deterministic=False)"
            )

    def _init_rank_state(self, rank: int) -> None:
        self.states[rank] = HydEERankState(rank=rank, cluster=self.cluster_of(rank))

    # ================================================================== sends
    def on_app_send(self, rank: int, message: Message) -> SendDecision:
        state = self.states[rank]
        recovery = state.recovery

        # Recovery gating: a process must not send its first message after a
        # failure until the recovery process notifies its phase (Algorithm 2
        # line 8, Algorithm 3 line 18).  The date and phase are nevertheless
        # assigned *now*, at the application's program-order send point, so
        # that re-executed sends keep the dates of the original execution.
        piggyback = message.piggyback
        if "date" in piggyback:
            # Second attempt of a deferred send: stamped the first time.
            date = piggyback["date"]
            phase = piggyback["phase"]
            inter = bool(message.inter_cluster)
        else:
            # PhaseClock.on_send and is_inter_cluster, inline.
            clock = state.clock
            date = clock.date + 1
            phase = clock.phase
            clock.date = piggyback["date"] = date
            piggyback["phase"] = phase
            cluster_of = self._cluster_of
            message.inter_cluster = inter = cluster_of[rank] != cluster_of[message.dest]

        if recovery is not None:
            if not recovery.gate_open():
                if recovery.send_gate is None or recovery.send_gate.fired:
                    recovery.send_gate = Condition(name=f"hydee-send-gate-{rank}")
                return SendDecision.defer(recovery.send_gate)

            # Orphan suppression (Algorithm 2 lines 13-15): a rolled back
            # process regenerating a message its receiver already delivered
            # notifies the recovery process instead of sending it again.
            if recovery.rolled_back and inter:
                orphan_limit = recovery.orphan_date.get(message.dest, 0)
                if date <= orphan_limit:
                    self.pstats.suppressed_orphans += 1
                    self._send_control(
                        rank, RECOVERY_PROCESS, "orphan_notification", {"phase": phase}
                    )
                    return SendDecision.suppress()

        size = message.size_bytes
        costs = self._send_costs.get(size)
        if costs is None:
            costs = self._send_costs[size] = self._price_send(size)
        message.piggyback_bytes, unlogged, logged = costs
        pstats = self.pstats
        pstats.piggyback_bytes += self.piggyback_bytes

        # Sender-based payload logging of inter-cluster messages (line 7-8 of
        # Algorithm 1).  ``log_all_messages`` is the "Message Logging"
        # configuration of Figure 6.
        if inter or self.log_all_messages:
            state.log.add(message.dest, date, phase, message)
            pstats.logged_messages += 1
            pstats.logged_bytes += size
            return logged
        return unlogged

    def _price_send(self, size_bytes: int) -> Tuple[int, SendDecision, SendDecision]:
        """``(piggyback wire bytes, decision, decision when logged)`` of a size.

        Both costs are pure functions of the message size, and a run has a
        handful of sizes: priced once, the decisions are shared by every
        message of that size.
        """
        network = self.sim.network
        # Piggyback the (date, phase) pair following the prototype's policy:
        # inline for small messages, separate control message above 1 KiB.
        extra_bytes, extra_latency = network.piggyback_cost(
            size_bytes, self.piggyback_bytes, self.PIGGYBACK_POLICY
        )
        return (
            extra_bytes,
            SendDecision.send(extra_latency),
            SendDecision.send(extra_latency + network.memcpy_time(size_bytes)),
        )

    # =============================================================== delivery
    def on_app_deliver(self, rank: int, message: Message) -> float:
        state = self.states[rank]
        piggyback = message.piggyback
        phase_in = int(piggyback.get("phase", INITIAL_PHASE))
        date_in = int(piggyback.get("date", 0))
        inter = message.inter_cluster
        if inter is None:
            cluster_of = self._cluster_of
            message.inter_cluster = inter = cluster_of[message.source] != cluster_of[rank]
        # PhaseClock.on_deliver_inter / on_deliver_intra, inline.
        clock = state.clock
        clock.date += 1
        if inter:
            if phase_in >= clock.phase:
                clock.phase = phase_in + 1
            state.rpp.observe(message.source, date_in, phase_in)
        elif phase_in > clock.phase:
            clock.phase = phase_in
        return 0.0

    # ============================================================ checkpoints
    def _checkpoint_payload(self, rank: int) -> Dict[str, Any]:
        payload = self.states[rank].checkpoint_payload()
        phantom = self._ff_phantom_log.get(rank)
        if phantom:
            payload["ff_phantom"] = dict(phantom)
        return payload

    def _restore_from_payload(self, rank: int, payload: Optional[Dict[str, Any]]) -> None:
        self.states[rank].restore(payload)
        # Phantom bytes present when the checkpoint was taken are part of the
        # checkpointed log volume (exact execution would have saved those
        # entries in the payload), so a restore resurrects them; they can
        # still never be replayed -- the receivers delivered them before the
        # coordinated checkpoint this rollback restores to.
        self._ff_phantom_log.pop(rank, None)
        if payload and payload.get("ff_phantom"):
            self._ff_phantom_log[rank] = dict(payload["ff_phantom"])

    def _extra_checkpoint_bytes(self, rank: int) -> int:
        extra = self.states[rank].log.current_bytes
        phantom = self._ff_phantom_log.get(rank)
        if phantom:
            extra += sum(phantom.values())
        return extra

    def _after_checkpoint(self, rank: int, record: CheckpointRecord) -> None:
        """Record the acknowledgement data for log garbage collection.

        The acknowledgements themselves are only sent once the *whole*
        cluster has completed this coordinated checkpoint (see
        :meth:`_on_cluster_checkpoint_complete`): until then a failure of a
        cluster peer could still force a rollback to an older checkpoint that
        needs the logged messages this checkpoint covers.
        """
        state = self.states[rank]
        acks = {
            sender: channel.max_date
            for sender, channel in state.rpp.channels()
            if channel.max_date > 0
        }
        if acks:
            self._pending_gc_acks[(self.cluster_of(rank), record.iteration, rank)] = acks

    def _on_cluster_checkpoint_complete(self, cluster_id: int, iteration: int) -> None:
        """Log garbage collection (Section III-E).

        Once the cluster's coordinated checkpoint is durable, each member
        acknowledges to every inter-cluster sender the send-date of the last
        message it had delivered from it when it checkpointed; the sender
        reclaims the corresponding log entries, which can never be requested
        again (the receiver's cluster will never roll back past this
        checkpoint).
        """
        for rank in self.members(cluster_id):
            acks = self._pending_gc_acks.pop((cluster_id, iteration, rank), {})
            for sender, up_to_date in acks.items():
                # Not session-scoped: a checkpoint's acknowledgement stays valid.
                self.sim.control.send(rank, sender, "gc_ack", {"up_to_date": up_to_date})

    # ============================================== batched fast-forward
    def ff_epoch_snapshot(self) -> Optional[EpochState]:
        """HydEE's columns of the epoch state (see ``ProtocolHooks``):
        Algorithm 1's per-process state, linear in steady iterations -- the
        (date, phase) clock per rank, ``Maxdate`` per incoming channel
        ``(rank, sender)``, the logged volume per ``(rank, dest)`` -- and the
        logging counters.  Batching relies on log garbage collection (it is
        what makes the skipped epochs' log entries unobservable) and requires
        no recovery residue.
        """
        states = self.states
        if any(state.in_recovery for state in states.values()):
            return None
        log_entries: Dict[Tuple[int, int], int] = {}
        log_bytes: Dict[Tuple[int, int], int] = {}
        for rank, state in states.items():
            for entry in state.log.entries:
                key = (rank, entry.dest)
                log_entries[key] = log_entries.get(key, 0) + 1
                log_bytes[key] = log_bytes.get(key, 0) + entry.size_bytes
        return {
            "hydee.date": {rank: state.clock.date for rank, state in states.items()},
            "hydee.phase": {rank: state.clock.phase for rank, state in states.items()},
            "hydee.rpp": {
                (rank, sender): channel.max_date
                for rank, state in states.items() for sender, channel in state.rpp.channels()
            },
            "hydee.log_bytes": log_bytes,
            "hydee.log_entries": log_entries,
            "pstats": self.pstats.as_dict(),
        }

    def ff_epoch_apply(self, delta: EpochState, n: int) -> None:
        super().ff_epoch_apply(delta, n)
        states = self.states
        for rank, by in delta["hydee.date"].items():
            states[rank].clock.date += n * by
        for rank, by in delta["hydee.phase"].items():
            states[rank].clock.phase += n * by
        for (rank, sender), by in delta["hydee.rpp"].items():
            states[rank].rpp.advance_max_date(sender, n * by)
        # The skipped messages are never logged for real: only their volume
        # (a checkpoint's size includes the live log) is carried along.
        for (rank, dest), nbytes in delta["hydee.log_bytes"].items():
            if nbytes:
                phantom = self._ff_phantom_log.setdefault(rank, {})
                phantom[dest] = phantom.get(dest, 0) + n * nbytes

    # ================================================================ failure
    def on_failure(self, failed_ranks: Iterable[int], time: float) -> None:
        """Roll back the struck clusters and start a recovery session.  A
        strike during an active session joins it (see the module docstring)
        and keeps its start: ``recovery_time`` covers the whole overlap."""
        clusters = self.clusters_of_ranks(failed_ranks)
        active = self.orchestrator
        if active is not None and not active.complete:
            clusters += self.clusters_of_ranks(active.report.rolled_back_ranks)
            time = active.report.started_at
        rollback = self.rollback_clusters(clusters)
        rolled = set(rollback.ranks)
        all_ranks = list(range(self.sim.nprocs))
        # Gates of the replaced session (rolled back ranks lost theirs with
        # their state): fired once the new state exists, to re-gate on it.
        parked = [
            state.recovery.send_gate for state in self.states.values()
            if state.recovery is not None and state.recovery.send_gate is not None
        ]

        self.session += 1
        self.pstats.recoveries += 1
        self.orchestrator = RecoveryOrchestrator(
            expected_ranks=all_ranks,
            notify=self._recovery_notify,
            started_at=time,
            rolled_back_ranks=rolled,
            on_complete=self._on_recovery_complete,
        )

        # Initialise the per-rank recovery state (Algorithms 2 and 3).
        for rank in all_ranks:
            state = self.states[rank]
            recovery = state.begin_recovery(rolled_back=(rank in rolled))
            peers_rolled_back = rolled - set(self.members(self.cluster_of(rank)))
            recovery.awaiting_rollback_from = set(peers_rolled_back)
            if recovery.rolled_back:
                recovery.awaiting_lastdate_from = set(self.ranks_outside_cluster(rank))
            if not recovery.awaiting_rollback_from:
                self._finalize_reports(rank)
        for gate in parked:
            gate.fire()

        # Rolled back processes announce their restart point (Algorithm 2,
        # lines 6-7).  See the module docstring for the content of the
        # notification.
        for rank in sorted(rolled):
            state = self.states[rank]
            for peer in self.ranks_outside_cluster(rank):
                self._send_control(
                    rank,
                    peer,
                    "rollback",
                    {
                        "restart_date": state.clock.date,
                        "last_delivered_from_you": state.rpp.max_date(peer),
                    },
                )

    # ------------------------------------------------------- control handling
    def _send_control(self, sender: int, dest: int, kind: str, data: Dict[str, Any]) -> None:
        """Send a control message of the current recovery session."""
        data["session"] = self.session
        self.sim.control.send(sender, dest, kind, data)

    def _dispatch_control(self, cm: ControlMessage) -> None:
        if cm.data.get("session", self.session) != self.session:
            return  # sent by a session a later strike joined and replaced
        if cm.dest == RECOVERY_PROCESS:
            if self.orchestrator is None:
                raise ProtocolError(f"control message {cm.kind!r} but no recovery is active")
            self.orchestrator.handle(cm.kind, cm.sender, cm.data)
            return
        handlers = self._control_handlers
        if handlers is None:
            handlers = self._control_handlers = {
                "rollback": self._on_rollback_notification,
                "last_date": self._on_last_date,
                NOTIFY_SEND_LOG: self._on_notify_send_log,
                NOTIFY_SEND_MSG: self._on_notify_send_msg,
                "gc_ack": self._on_gc_ack,
            }
        handler = handlers.get(cm.kind)
        if handler is None:
            raise ProtocolError(f"HydEE: unknown control message kind {cm.kind!r}")
        handler(cm.dest, cm.sender, cm.data)

    def _on_rollback_notification(self, rank: int, from_rank: int, data: Dict[str, Any]) -> None:
        """Algorithm 3, lines 6-16 (also executed by rolled back processes for
        rolled back peers in *other* clusters, which is required to survive
        multiple concurrent failures)."""
        state = self.states[rank]
        recovery = state.recovery
        if recovery is None:
            raise ProtocolError(
                f"rank {rank} received a rollback notification outside a recovery session"
            )
        restart_date = int(data["restart_date"])
        last_delivered_from_me = int(data["last_delivered_from_you"])
        recovery.rollback_date[from_rank] = restart_date

        # Answer with the send-date of the last message delivered from the
        # rolled back process (Algorithm 3 line 9): it will use it to decide
        # which regenerated messages are orphans.
        self._send_control(
            rank, from_rank, "last_date", {"date": state.rpp.max_date(from_rank)}
        )

        # Logged messages to replay (Algorithm 3 lines 10-12).
        entries = state.log.entries_for(from_rank, after_date=last_delivered_from_me)
        recovery.resent_logs.extend(entries)
        recovery.pending_log_phases.update(e.phase for e in entries)

        # Orphan messages on this channel (Algorithm 3 lines 13-14).
        orphans = state.rpp.orphan_entries(from_rank, restart_date)
        recovery.orphan_phases.extend(phase for _date, phase in orphans)

        recovery.awaiting_rollback_from.discard(from_rank)
        if not recovery.awaiting_rollback_from and recovery.own_phase_reported is None:
            self._finalize_reports(rank)

    def _finalize_reports(self, rank: int) -> None:
        """Send the Log / Orphan / OwnPhase reports (Algorithm 3 lines 15-17,
        Algorithm 2 line 7)."""
        state = self.states[rank]
        recovery = state.recovery
        if recovery is None:  # pragma: no cover - defensive
            return
        recovery.own_phase_reported = state.clock.phase
        log_phases = sorted({entry.phase for entry in recovery.resent_logs})
        self._send_control(rank, RECOVERY_PROCESS, "log_report", {"phases": log_phases})
        self._send_control(
            rank, RECOVERY_PROCESS, "orphan_report", {"phases": list(recovery.orphan_phases)}
        )
        self._send_control(
            rank, RECOVERY_PROCESS, "own_phase", {"phase": state.clock.phase}
        )

    def _on_last_date(self, rank: int, from_rank: int, data: Dict[str, Any]) -> None:
        """Algorithm 2, lines 9-10."""
        state = self.states[rank]
        recovery = state.recovery
        if recovery is None:
            return
        recovery.orphan_date[from_rank] = int(data["date"])
        recovery.awaiting_lastdate_from.discard(from_rank)
        self._maybe_open_gate(rank)
        self._maybe_finish_rank_recovery(rank)

    def _on_notify_send_msg(self, rank: int, _from_rank: int, data: Dict[str, Any]) -> None:
        """Release of the first-send gate (Algorithm 2 line 8 / Algorithm 3 line 18)."""
        state = self.states[rank]
        recovery = state.recovery
        if recovery is None:
            return
        recovery.notify_send_received = True
        self._maybe_open_gate(rank)
        self._maybe_finish_rank_recovery(rank)

    def _maybe_open_gate(self, rank: int) -> None:
        recovery = self.states[rank].recovery
        if recovery is not None and recovery.gate_open() and recovery.send_gate is not None:
            recovery.send_gate.fire()

    def _on_notify_send_log(self, rank: int, _from_rank: int, data: Dict[str, Any]) -> None:
        """Replay the logged messages whose phase has been released
        (Algorithm 3, lines 22-24)."""
        state = self.states[rank]
        recovery = state.recovery
        if recovery is None:
            return
        released_phase = int(data["phase"])
        to_replay = [e for e in recovery.resent_logs if e.phase <= released_phase]
        recovery.resent_logs = [e for e in recovery.resent_logs if e.phase > released_phase]
        recovery.pending_log_phases = {
            p for p in recovery.pending_log_phases if p > released_phase
        }
        for entry in sorted(to_replay, key=lambda e: (e.dest, e.date)):
            self.sim.replay_message(entry.message)
            self.pstats.replayed_messages += 1
        self._maybe_finish_rank_recovery(rank)

    def _on_gc_ack(self, rank: int, from_rank: int, data: Dict[str, Any]) -> None:
        """Reclaim acknowledged log entries (Section III-E)."""
        state = self.states[rank]
        freed = state.log.purge_acknowledged(from_rank, int(data["up_to_date"]))
        # Phantom bytes of a batched epoch lie entirely below the recovery
        # line the acknowledgement covers, so the ack reclaims them whole.
        phantom = self._ff_phantom_log.get(rank)
        if phantom:
            freed += phantom.pop(from_rank, 0)
        self.pstats.gc_reclaimed_bytes += freed

    # ---------------------------------------------------- recovery completion
    def _recovery_notify(self, kind: str, rank: int, phase: int) -> None:
        self._send_control(RECOVERY_PROCESS, rank, kind, {"phase": phase})

    def _maybe_finish_rank_recovery(self, rank: int) -> None:
        """Discard a rank's recovery state once it has no pending obligation.

        The recovery process completing (all orphans regenerated, every
        notification issued) is not enough for an individual rank: its
        ``NotifySendMsg`` / ``NotifySendLog`` control messages may still be in
        flight, and clearing the state early would leave deferred sends
        parked on a gate that nobody will fire.  A rank switches back to the
        failure-free functions (Algorithm 2 lines 21-22) when the session is
        complete *and* it has processed its own notifications.
        """
        if self.orchestrator is None or not self.orchestrator.complete:
            return
        state = self.states[rank]
        recovery = state.recovery
        if recovery is None:
            return
        if not recovery.notify_send_received:
            return
        if recovery.resent_logs or recovery.pending_log_phases:
            return
        if recovery.rolled_back and recovery.awaiting_lastdate_from:
            return
        if recovery.send_gate is not None and not recovery.send_gate.fired:
            recovery.send_gate.fire()
        state.end_recovery()

    def _on_recovery_complete(self, orchestrator: RecoveryOrchestrator) -> None:
        now = self.sim.engine.now
        self.sim.stats.recovery_time += now - orchestrator.report.started_at
        self.recovery_reports.append(
            {
                "started_at": orchestrator.report.started_at,
                "completed_at": now,
                "rolled_back_ranks": list(orchestrator.report.rolled_back_ranks),
                "orphan_messages": orchestrator.report.orphan_messages,
                "notifications_sent": orchestrator.report.notifications_sent,
            }
        )
        # Ranks whose notifications have already been processed can switch
        # back to the failure-free functions now; the others will do so when
        # their in-flight NotifySendMsg / NotifySendLog arrive.
        for rank in self.states:
            self._maybe_finish_rank_recovery(rank)

    # ------------------------------------------------------------ inspection
    def recovery_in_progress(self) -> bool:
        return self.orchestrator is not None and not self.orchestrator.complete

    def memory_usage_bytes(self) -> Dict[int, int]:
        return {
            rank: state.log_memory_bytes()
            + sum(self._ff_phantom_log.get(rank, {}).values())
            for rank, state in self.states.items()
        }

    def phase_of(self, rank: int) -> int:
        return self.states[rank].clock.phase

    def extra_metrics(self) -> Dict[str, Any]:
        info = super().extra_metrics()
        add_metric(info, "log_all_messages", self.log_all_messages)
        add_metric(info, "piggyback_policy", self.PIGGYBACK_POLICY.value)
        # Not "piggyback_bytes": that name is the ProtocolStatistics traffic
        # counter; this is the configured per-message piggyback size.
        add_metric(info, "configured_piggyback_bytes", self.piggyback_bytes)
        add_metric(info, "log_memory_bytes", sum(self.memory_usage_bytes().values()))
        # Not "recoveries": that name belongs to the ProtocolStatistics
        # counter, which the old pstats_ prefix used to hide the collision.
        add_metric(info, "recovery_reports", len(self.recovery_reports))
        return info
