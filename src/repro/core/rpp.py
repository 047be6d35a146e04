"""RPP -- the *Received Per Phase* table (Algorithm 1, lines 13-14).

Each process keeps, for every incoming inter-cluster channel, the send-date of
the last message it delivered (``Maxdate``) and the phase of every delivered
message indexed by its send-date.  The table has three uses in the paper:

* after a failure, a non-rolled-back process determines the **orphan
  messages** on a channel from a rolled back process ``q``: the entries whose
  send-date is greater than ``q``'s restart date (Algorithm 3, lines 13-14);
* the process answers the rolled back sender with ``LastDate`` --- the
  send-date of the last message it delivered from it (Algorithm 3, line 9),
  which the sender uses to suppress orphan re-sends (Algorithm 2, line 14);
* ``Maxdate`` as stored in the *receiver's checkpoint* tells senders which
  logged messages the restored receiver already has, i.e. which log entries
  must be replayed (Algorithm 3, line 10; see the module documentation of
  :mod:`repro.core.protocol` for the clarification of the paper's pseudo-code
  on this point).

The table is part of the checkpoint (Algorithm 1, line 21).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class ChannelRecord:
    """Reception history of one incoming channel."""

    max_date: int = 0
    #: send-date -> phase of the delivered message.
    phases: Dict[int, int] = field(default_factory=dict)

    def observe(self, send_date: int, phase: int) -> None:
        self.max_date = max(self.max_date, send_date)
        self.phases[send_date] = phase

    def entries_after(self, date: int) -> List[Tuple[int, int]]:
        """(send_date, phase) of delivered messages with send_date > date."""
        return sorted((d, p) for d, p in self.phases.items() if d > date)

    def prune_up_to(self, date: int) -> int:
        """Drop entries with send_date <= date (garbage collection); return count."""
        stale = [d for d in self.phases if d <= date]
        for d in stale:
            del self.phases[d]
        return len(stale)


class RPPTable:
    """Received-Per-Phase table covering every incoming channel of a process."""

    def __init__(self) -> None:
        self._channels: Dict[int, ChannelRecord] = {}

    # ------------------------------------------------------------------ write
    def observe(self, sender: int, send_date: int, phase: int) -> None:
        self._channels.setdefault(sender, ChannelRecord()).observe(send_date, phase)

    def advance_max_date(self, sender: int, by: int) -> None:
        """Bulk-advance ``Maxdate`` of a channel without per-date entries.

        Used by the hybrid fast path for deliveries inside a batched
        failure-free epoch: their send-dates can never exceed a rolled-back
        sender's restart date (the epoch ends on the recovery line), so only
        ``Maxdate`` -- which drives log replay filtering and garbage
        collection -- needs to move; the per-date phase entries would be
        dead weight in every later orphan scan.
        """
        if by <= 0:
            return
        self._channels.setdefault(sender, ChannelRecord()).max_date += by

    # ------------------------------------------------------------------- read
    def max_date(self, sender: int) -> int:
        record = self._channels.get(sender)
        return record.max_date if record else 0

    def orphan_entries(self, sender: int, sender_restart_date: int) -> List[Tuple[int, int]]:
        """Delivered messages from ``sender`` that its restored state has not sent.

        These are the orphan messages of the channel (Algorithm 3 lines
        13-14): entries whose send-date exceeds the sender's restart date.
        """
        record = self._channels.get(sender)
        if record is None:
            return []
        return record.entries_after(sender_restart_date)

    def channels(self) -> Iterable[Tuple[int, ChannelRecord]]:
        """(sender, record) view over the incoming channels."""
        return self._channels.items()

    def entry_count(self) -> int:
        return sum(len(c.phases) for c in self._channels.values())

    # ----------------------------------------------------- garbage collection
    def prune_channel(self, sender: int, up_to_date: int) -> int:
        record = self._channels.get(sender)
        if record is None:
            return 0
        return record.prune_up_to(up_to_date)

    # ------------------------------------------------------------ checkpoints
    def snapshot(self) -> Dict[int, Dict[str, object]]:
        return {
            sender: {"max_date": rec.max_date, "phases": dict(rec.phases)}
            for sender, rec in self._channels.items()
        }

    @classmethod
    def from_snapshot(cls, snapshot: Optional[Dict[int, Dict[str, object]]]) -> "RPPTable":
        table = cls()
        if snapshot:
            for sender, data in snapshot.items():
                record = ChannelRecord(max_date=int(data["max_date"]))
                record.phases = {int(d): int(p) for d, p in dict(data["phases"]).items()}
                table._channels[int(sender)] = record
        return table
