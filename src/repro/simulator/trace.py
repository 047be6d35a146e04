"""Event tracing and communication accounting.

Two consumers rely on the trace:

* the clustering substrate (:mod:`repro.clustering.comm_graph`) builds the
  channel-volume graph from :class:`CommunicationRecord` entries -- this is
  the same input the paper's off-line clustering tool [28] consumes (the
  authors instrumented MPICH2 to collect per-channel volumes);
* the invariant checkers (:mod:`repro.core.invariants`) compare the sequences
  of send events between a reference execution and an execution with failures
  to validate send-determinism-based recovery (Lemma 4 / Theorem 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.simulator.messages import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass
class CommunicationRecord:
    """One application-level communication event (send or delivery)."""

    event: str  # "send" | "deliver" | "suppressed_send"
    time: float
    source: int
    dest: int
    tag: int
    size_bytes: int
    msg_id: int
    kind: str
    replayed: bool = False
    inter_cluster: Optional[bool] = None
    phase: Optional[int] = None
    date: Optional[int] = None


@dataclass
class SendSignature:
    """Minimal identity of a send used for send-determinism comparisons.

    Two executions of a send-deterministic application must produce, per
    process, the same ordered sequence of these signatures (Definition 3 of
    the paper).  Timing and message ids are deliberately excluded.
    """

    dest: int
    tag: int
    size_bytes: int
    payload_repr: str

    @classmethod
    def from_message(cls, message: Message) -> "SendSignature":
        return cls(
            dest=message.dest,
            tag=message.tag,
            size_bytes=message.size_bytes,
            payload_repr=repr(message.payload),
        )


#: an ``(original, re-executed)`` pair of send segments around one rollback.
Overlap = Tuple[List[SendSignature], List[SendSignature]]


class TraceRecorder:
    """Accumulates communication records and per-channel volumes.

    With ``record_events=False`` (large campaign sweeps) the recorder keeps
    only the aggregate per-channel counters: neither
    :class:`CommunicationRecord` nor :class:`SendSignature` objects are
    constructed at all, so the per-message cost on the hot path is one dict
    update per send and no allocation.  Send-determinism comparisons
    (:func:`compare_send_sequences`) need a recorder built with
    ``record_events=True``.
    """

    def __init__(self, record_events: bool = True) -> None:
        self.record_events = record_events
        self.records: List[CommunicationRecord] = []
        #: (source, dest) -> [message_count, byte_count]
        self.channel_volumes: Dict[Tuple[int, int], List[int]] = {}
        #: per-rank ordered send signatures (includes suppressed orphan sends,
        #: because a suppressed send is still "the same message sent again" in
        #: the send-deterministic model).
        self.send_sequences: Dict[int, List[SendSignature]] = {}
        #: rank -> list of (raw_index_at_restart, logical sends kept from the
        #: checkpoint).  Recorded when a rank rolls back; used to reconstruct
        #: the *logical* send sequence of an execution with failures
        #: (re-executed sends overwrite the rolled-back suffix rather than
        #: appending to it).
        self.restart_marks: Dict[int, List[Tuple[int, int]]] = {}

    # ------------------------------------------------------------------ hooks
    def record_send(self, message: Message, time: float, suppressed: bool = False) -> None:
        if not suppressed:
            entry = self.channel_volumes.setdefault((message.source, message.dest), [0, 0])
            entry[0] += 1
            entry[1] += message.size_bytes
        if self.record_events:
            if not message.replayed:
                self.send_sequences.setdefault(message.source, []).append(
                    SendSignature.from_message(message)
                )
            self.records.append(
                CommunicationRecord(
                    event="suppressed_send" if suppressed else "send",
                    time=time,
                    source=message.source,
                    dest=message.dest,
                    tag=message.tag,
                    size_bytes=message.size_bytes,
                    msg_id=message.msg_id,
                    kind=message.kind.value,
                    replayed=message.replayed,
                    inter_cluster=message.inter_cluster,
                    phase=message.piggyback.get("phase"),
                    date=message.piggyback.get("date"),
                )
            )

    def record_delivery(self, message: Message, time: float) -> None:
        if self.record_events:
            self.records.append(
                CommunicationRecord(
                    event="deliver",
                    time=time,
                    source=message.source,
                    dest=message.dest,
                    tag=message.tag,
                    size_bytes=message.size_bytes,
                    msg_id=message.msg_id,
                    kind=message.kind.value,
                    replayed=message.replayed,
                    inter_cluster=message.inter_cluster,
                    phase=message.piggyback.get("phase"),
                    date=message.piggyback.get("date"),
                )
            )

    def mark_restart(self, rank: int, sends_at_checkpoint: int) -> None:
        """Record that ``rank`` rolled back to a checkpoint taken after its
        ``sends_at_checkpoint``-th logical application send."""
        raw_index = len(self.send_sequences.get(rank, []))
        self.restart_marks.setdefault(rank, []).append((raw_index, sends_at_checkpoint))

    # --------------------------------------------------------------- queries
    def effective_send_sequence(self, rank: int) -> List[SendSignature]:
        """Logical send sequence of ``rank`` accounting for rollbacks.

        Raw sequences contain the sends of every incarnation of the rank.
        When the rank rolled back, the sends performed after the restored
        checkpoint are *re-executed*; the logical sequence therefore keeps the
        checkpoint prefix of the previous incarnation and continues with the
        re-executed sends.  For a failure-free execution this is identical to
        the raw sequence.
        """
        return self._replay_marks(rank)[0]

    def reexecution_overlaps(self, rank: int) -> List[Overlap]:
        """Pairs of (original, re-executed) send segments for each rollback.

        Used to check send-determinism empirically: the re-executed segment
        must reproduce the original segment message for message (Definition 3
        / Lemma 4 of the paper), for as far as the re-execution has progressed.
        """
        return self._replay_marks(rank)[1]

    def _replay_marks(self, rank: int) -> Tuple[List[SendSignature], List[Overlap]]:
        """The logical sequence and the overlaps, in one pass over the raw
        sends and the restart marks.  A mark's ``keep`` is a logical length:
        the original segment is the logical tail the mark discards, the
        re-executed one the raw sends after the mark, up to the next mark."""
        raw = self.send_sequences.get(rank, [])
        marks = self.restart_marks.get(rank, [])
        logical: List[SendSignature] = []
        overlaps: List[Overlap] = []
        start = 0
        for i, (raw_index, keep) in enumerate(marks):
            logical.extend(raw[start:raw_index])
            original = logical[keep:]
            del logical[keep:]
            end = marks[i + 1][0] if i + 1 < len(marks) else len(raw)
            overlaps.append((original, raw[raw_index : min(end, raw_index + len(original))]))
            start = raw_index
        logical.extend(raw[start:])
        return logical, overlaps

    def communication_matrix(self, nprocs: int, weight: str = "bytes") -> np.ndarray:
        """Dense ``nprocs x nprocs`` matrix of channel volumes.

        ``weight`` selects ``"bytes"`` or ``"messages"``.
        """
        import numpy as np

        index = 1 if weight == "bytes" else 0
        matrix = np.zeros((nprocs, nprocs), dtype=np.float64)
        for (src, dst), (count, nbytes) in self.channel_volumes.items():
            if 0 <= src < nprocs and 0 <= dst < nprocs:
                matrix[src, dst] += (nbytes if index == 1 else count)
        return matrix

    def total_bytes(self) -> int:
        return sum(v[1] for v in self.channel_volumes.values())


def compare_send_sequences(
    reference: TraceRecorder,
    other: TraceRecorder,
    ranks: Optional[Iterable[int]] = None,
) -> Dict[int, Tuple[int, int]]:
    """Compare per-rank send sequences between two traces.

    Returns a dict mapping rank -> (reference_length, other_length) for every
    rank whose sequences *differ* (empty dict means the executions are
    send-equivalent, the property guaranteed by send-determinism plus a
    correct recovery).  Duplicate suppressed/replayed sends are already
    excluded by :meth:`TraceRecorder.record_send`.
    """
    mismatches: Dict[int, Tuple[int, int]] = {}
    all_ranks = set(reference.send_sequences) | set(other.send_sequences)
    if ranks is not None:
        all_ranks &= set(ranks)
    for rank in sorted(all_ranks):
        ref_seq = reference.effective_send_sequence(rank)
        oth_seq = other.effective_send_sequence(rank)
        if ref_seq != oth_seq:
            mismatches[rank] = (len(ref_seq), len(oth_seq))
    return mismatches
