"""Sender-based message log (Johnson & Zwaenepoel [19], Algorithm 1 line 8).

HydEE logs the *payload* of inter-cluster messages in the volatile memory of
their sender.  No determinant (reception order) is ever recorded -- that is
the paper's headline difference with earlier hybrid protocols.  The log is
included in the sender's checkpoints (Algorithm 1 line 21), so a sender that
rolls back still holds the log entries for messages it sent before its
checkpoint; entries created after the checkpoint are lost but will be
regenerated by re-execution (Section III-A).

Garbage collection (Section III-E): once the receiver of a logged message has
taken a checkpoint that includes its delivery, the entry can never be needed
again and is reclaimed when the receiver's acknowledgement arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.simulator.messages import Message


@dataclass
class LogEntry:
    """One logged message: (destination, sender date, sender phase, payload)."""

    dest: int
    date: int
    phase: int
    message: Message
    size_bytes: int


class SenderLog:
    """Per-process sender-based payload log."""

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []
        self._current_bytes = 0

    # ------------------------------------------------------------------ write
    def add(self, dest: int, date: int, phase: int, message: Message) -> LogEntry:
        entry = LogEntry(
            dest=dest,
            date=date,
            phase=phase,
            message=message,
            size_bytes=message.size_bytes,
        )
        self._entries.append(entry)
        self._current_bytes += entry.size_bytes
        return entry

    # ------------------------------------------------------------------- read
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> List[LogEntry]:
        return list(self._entries)

    @property
    def current_bytes(self) -> int:
        # Maintained incrementally: the live volume is read at every
        # checkpoint of every rank, which is far more often than the log
        # changes.
        return self._current_bytes

    def entries_for(self, dest: int, after_date: int) -> List[LogEntry]:
        """Logged messages to ``dest`` the restored receiver does not have.

        ``after_date`` is the send-date of the last message from this process
        that the receiver's restored state had delivered (its checkpointed
        ``RPP[me].Maxdate``); every logged entry with a larger send-date must
        be replayed (Algorithm 3 lines 10-12).
        """
        return sorted(
            (e for e in self._entries if e.dest == dest and e.date > after_date),
            key=lambda e: e.date,
        )

    # ----------------------------------------------------- garbage collection
    def purge_acknowledged(self, dest: int, up_to_date: int) -> int:
        """Drop entries to ``dest`` with date <= up_to_date; return bytes freed.

        Called when ``dest`` acknowledges a checkpoint that includes every
        delivery up to ``up_to_date`` (Section III-E).
        """
        keep: List[LogEntry] = []
        freed = 0
        for entry in self._entries:
            if entry.dest == dest and entry.date <= up_to_date:
                freed += entry.size_bytes
            else:
                keep.append(entry)
        self._entries = keep
        self._current_bytes -= freed
        return freed

    # ------------------------------------------------------------ checkpoints
    def snapshot(self) -> Tuple[LogEntry, ...]:
        """Structurally-shared snapshot of the log for a checkpoint.

        Log entries are effectively immutable (their fields -- including the
        logged :class:`Message`, whose replay path always goes through
        :meth:`Message.clone_for_replay` -- are never mutated after
        :meth:`add`), so a checkpoint simply shares them: no per-entry
        cloning, no deep copy.  The tuple itself isolates the checkpoint
        from later ``add``/``purge_acknowledged`` calls on the live log.
        """
        return tuple(self._entries)

    @classmethod
    def from_snapshot(cls, snapshot: Optional[Tuple[LogEntry, ...]]) -> "SenderLog":
        log = cls()
        if snapshot:
            log._entries.extend(snapshot)
            log._current_bytes = sum(e.size_bytes for e in snapshot)
        return log
