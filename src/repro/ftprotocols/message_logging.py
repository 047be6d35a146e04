"""Pessimistic sender-based message logging of every message.

The classical alternative to checkpoint-based protocols (Section II-B and
related work of the paper): every message payload is copied into the sender's
memory, every delivery produces a determinant that is logged reliably before
the execution proceeds, and process checkpoints are purely local
(uncoordinated).  After a failure only the failed process rolls back
("perfect failure containment"); the messages it had received since its last
checkpoint are replayed from the senders' logs, and the duplicate messages it
re-sends while re-executing are discarded by their receivers.

Cost model:

* the payload copy costs the (mostly overlapped) memcpy time of the network
  model, like HydEE's logging;
* determinant logging costs ``DETERMINANT_LATENCY_S`` per delivery, modelling
  the synchronous write to reliable storage that pessimistic protocols
  require (the paper cites [29] for the magnitude of this cost);
* every message carries a piggybacked per-channel sequence number
  (``PIGGYBACK_BYTES`` on the wire) used for duplicate suppression during
  recovery.

Recovery ordering note: the real protocol replays messages in the order
recorded by the determinants.  The workloads in this repository are
send-deterministic and receive on FIFO channels, so per-channel FIFO replay
-- which is what the implementation below does -- yields exactly the order
the determinants would dictate; determinants are still counted and priced.

Recovery also assumes every channel is *matched* in sequence order, as
directed receives on one tag per channel are.  After a failure, a survivor
takes the failed sender's seqs still in its unexpected queue as the newest
ones it received; a receive by tag or from ``ANY_SOURCE`` that matched a later
seq past a queued one breaks that, and ``on_failure`` raises
:class:`ProtocolError` instead of accepting the later seq a second time.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.core.message_log import SenderLog
from repro.errors import ProtocolError
from repro.ftprotocols.base import (
    DETERMINANT_BYTES, DETERMINANT_LATENCY_S, ClusteredProtocolBase
)
from repro.simulator.messages import Message
from repro.simulator.protocol_api import SendDecision, add_metric

#: Wire size of the piggybacked per-channel sequence number.
PIGGYBACK_BYTES = 8


class _RankLogState:
    """Per-rank state of the full message-logging protocol."""

    __slots__ = ("send_seq", "recv_seq", "log", "determinants", "arrived_seq", "stash")

    def __init__(self) -> None:
        #: next sequence number per destination channel.
        self.send_seq: Dict[int, int] = {}
        #: last delivered sequence number per source channel.
        self.recv_seq: Dict[int, int] = {}
        self.log = SenderLog()
        self.determinants = 0
        #: last sequence number *released to the rank* per source channel.
        #: Tracks arrivals (>= recv_seq, which only advances at match time)
        #: so a duplicate of an arrived-but-unmatched message is still caught.
        self.arrived_seq: Dict[int, int] = {}
        #: early arrivals held back per source until the channel gap fills
        #: (a replayed predecessor still in flight).  Transient: never
        #: checkpointed -- on restore the replay covers these seqs afresh.
        self.stash: Dict[int, Dict[int, Message]] = {}

    def snapshot(self) -> Dict[str, Any]:
        return {
            "send_seq": dict(self.send_seq),
            "recv_seq": dict(self.recv_seq),
            "log": self.log.snapshot(),
            "determinants": self.determinants,
        }

    def restore(self, payload: Optional[Dict[str, Any]]) -> None:
        if payload is None:
            self.send_seq = {}
            self.recv_seq = {}
            self.log = SenderLog()
            self.determinants = 0
        else:
            self.send_seq = dict(payload["send_seq"])
            self.recv_seq = dict(payload["recv_seq"])
            self.log = SenderLog.from_snapshot(payload["log"])
            self.determinants = int(payload["determinants"])
        # Arrival tracking restarts from the recovery line: everything after
        # the checkpointed recv_seq is replayed from the senders' logs.
        self.arrived_seq = dict(self.recv_seq)
        self.stash = {}


class FullMessageLoggingProtocol(ClusteredProtocolBase):
    """Pessimistic sender-based message logging with determinant logging."""

    name = "message-logging"

    def __init__(
        self,
        checkpoint_interval: Optional[int] = None,
        checkpoint_size_bytes: int = 16 * 1024 * 1024,
    ) -> None:
        super().__init__(
            checkpoint_interval=checkpoint_interval,
            checkpoint_size_bytes=checkpoint_size_bytes,
        )
        self.rank_state: Dict[int, _RankLogState] = {}

    # ------------------------------------------------------------- lifecycle
    def attach(self, sim) -> None:
        # One cluster per rank (checkpoints are local and uncoordinated),
        # built now that nprocs is known.
        self._clusters_spec = [[r] for r in range(sim.nprocs)]
        super().attach(sim)

    def _init_rank_state(self, rank: int) -> None:
        self.rank_state[rank] = _RankLogState()

    # ------------------------------------------------------------------ sends
    def on_app_send(self, rank: int, message: Message) -> SendDecision:
        state = self.rank_state[rank]
        seq = state.send_seq.get(message.dest, 0) + 1
        state.send_seq[message.dest] = seq
        message.piggyback["seq"] = seq
        message.piggyback_bytes = PIGGYBACK_BYTES
        message.inter_cluster = True  # every channel crosses a (singleton) cluster
        state.log.add(message.dest, seq, 0, message)
        self.pstats.logged_messages += 1
        self.pstats.logged_bytes += message.size_bytes
        self.pstats.piggyback_bytes += PIGGYBACK_BYTES
        extra_cpu = self.sim.network.memcpy_time(message.size_bytes)
        return SendDecision.send(extra_cpu)

    # --------------------------------------------------------------- delivery
    def on_message_arrival(self, rank: int, message: Message):
        """Enforce per-channel delivery in sequence order.

        Discards duplicates re-sent by a recovering process, and -- the racy
        half of recovery -- holds back a message that arrives *ahead* of an
        undelivered predecessor on its channel.  A replayed message transmits
        from a protocol event that can tie with the sender's next live send;
        if the tie-break puts the live send on the wire first, seq ``k+1``
        arrives before replayed seq ``k``.  FIFO channels are part of the
        system model (Section II-A), so the receiver restores the order: the
        early message waits in a stash and is released, together with any
        consecutive successors, the moment the gap fills.
        """
        seq = message.piggyback.get("seq")
        if seq is None:
            return True
        state = self.rank_state[rank]
        source = message.source
        seq = int(seq)
        last = state.arrived_seq.get(source, state.recv_seq.get(source, 0))
        if seq <= last:
            return False  # duplicate (possibly of an arrived-but-unmatched one)
        if seq > last + 1:
            state.stash.setdefault(source, {})[seq] = message
            return ()  # held back, not suppressed
        state.arrived_seq[source] = seq
        pending = state.stash.get(source)
        if not pending:
            return True
        batch = [message]
        nxt = seq + 1
        while nxt in pending:
            batch.append(pending.pop(nxt))
            state.arrived_seq[source] = nxt
            nxt += 1
        if not pending:
            del state.stash[source]
        return batch

    def on_app_deliver(self, rank: int, message: Message) -> float:
        state = self.rank_state[rank]
        seq = int(message.piggyback.get("seq", 0))
        if seq:
            state.recv_seq[message.source] = max(state.recv_seq.get(message.source, 0), seq)
        state.determinants += 1
        self.pstats.determinants_logged += 1
        self.pstats.determinant_bytes += DETERMINANT_BYTES
        # Pessimistic protocols block the delivery until the determinant is
        # safely logged; charge that latency to the receiver.
        return DETERMINANT_LATENCY_S

    # ------------------------------------------------------------ checkpoints
    def _checkpoint_cut(self, rank: int) -> Tuple[Dict[str, Any], int]:
        state = self.rank_state[rank]
        return state.snapshot(), state.log.current_bytes

    def _restore_from_payload(self, rank: int, payload: Optional[Dict[str, Any]]) -> None:
        self.rank_state[rank].restore(payload)

    # ---------------------------------------------------------------- failure
    def on_failure(self, failed_ranks: Iterable[int], time: float) -> None:
        failed = sorted(set(failed_ranks))
        # Purge not-yet-matched messages from the failed ranks so the copies
        # they re-send while re-executing are the only ones left.  Survivors'
        # arrival tracking falls back to just below the lowest purged seq: a
        # purged seq must read as new when it is re-sent, a matched one (even
        # if not yet delivered to the application) must still read as a
        # duplicate.  In-order matching makes the queued seqs the newest ones.
        for rank, state in self.rank_state.items():
            lowest: Dict[int, int] = {}
            for message in self.sim.ranks[rank].unexpected:
                seq = message.piggyback.get("seq")
                if message.source in failed and seq is not None:
                    if rank not in failed and seq <= state.recv_seq.get(message.source, 0):
                        raise ProtocolError(
                            f"message-logging: rank {rank} matched past seq {seq} "
                            f"from rank {message.source}; recovery needs in-order matching"
                        )
                    lowest[message.source] = min(lowest.get(message.source, seq), seq)
            for source in failed:
                if source in lowest:
                    state.arrived_seq[source] = lowest[source] - 1
                state.stash.pop(source, None)
        self.sim.purge_undelivered_from(set(failed))
        # Each failed rank rolls back alone (its singleton cluster).
        info = self.rollback_clusters(self.clusters_of_ranks(failed))
        self.pstats.recoveries += 1

        # Replay, from every sender's log, the messages the restarted ranks
        # had already delivered or that were in flight towards them.  A short
        # delay models the recovering process requesting its logs.  Each
        # (sender -> victim) channel's backlog replays inside a single event:
        # one transmit loop pins the channel's replay order to log order, so
        # per-channel FIFO holds no matter how same-time events interleave
        # (per-entry events would leave the order at the mercy of the
        # dispatch tie-break; RL08 flags that fan-out).
        request_delay = 2 * self.sim.control.latency_s
        for failed_rank in info.ranks:
            restored = self.rank_state[failed_rank]
            for sender, sender_state in self.rank_state.items():
                if sender == failed_rank:
                    continue
                after = restored.recv_seq.get(sender, 0)
                entries = sender_state.log.entries_for(failed_rank, after_date=after)
                if not entries:
                    continue
                for entry in entries:
                    self.sim.control.send(
                        failed_rank, sender, "log_request", {"seq": entry.date}, size_bytes=16
                    )
                    self.pstats.replayed_messages += 1
                self.sim.engine.schedule(
                    request_delay, self._replay_channel, list(entries)
                )
        # The restored ranks replay to the survivors too: a message sent
        # before the checkpoint and purged above is never re-executed.
        for failed_rank in info.ranks:
            log = self.rank_state[failed_rank].log
            for receiver, receiver_state in self.rank_state.items():
                if receiver in info.ranks:
                    continue
                after = receiver_state.arrived_seq.get(
                    failed_rank, receiver_state.recv_seq.get(failed_rank, 0)
                )
                entries = log.entries_for(receiver, after_date=after)
                if entries:
                    self.pstats.replayed_messages += len(entries)
                    self.sim.engine.schedule(
                        request_delay, self._replay_channel, list(entries)
                    )

    def _replay_channel(self, entries) -> None:
        """Transmit one channel's replay backlog in log (determinant) order."""
        for entry in entries:
            self.sim.replay_message(entry.message)

    def _dispatch_control(self, cm) -> None:
        # log_request messages only exist for traffic accounting.
        if cm.kind != "log_request":
            raise ProtocolError(f"message-logging: unexpected control message {cm.kind!r}")

    # ------------------------------------------------------------ inspection
    def memory_usage_bytes(self) -> Dict[int, int]:
        return {rank: st.log.current_bytes for rank, st in self.rank_state.items()}

    def extra_metrics(self) -> Dict[str, Any]:
        info = super().extra_metrics()
        add_metric(info, "determinant_latency_s", DETERMINANT_LATENCY_S)
        add_metric(info, "log_memory_bytes", sum(self.memory_usage_bytes().values()))
        return info
