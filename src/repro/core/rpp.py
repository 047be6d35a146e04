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

**Append-only history, shared by checkpoints.**  A channel keeps its
history as two parallel lists: the delivered send-dates in ascending order
and their phases.  Within one incarnation a receiver delivers a channel's
messages in send-date order -- channels are FIFO and a rolled back sender's
orphan re-sends are suppressed -- so :meth:`RPPTable.observe` appends.  A
checkpoint therefore does not copy the history: :meth:`RPPTable.snapshot`
hands out a :class:`PhaseHistory`, an immutable view of the prefix that
exists at that moment, and costs O(channels) however long the run.  The two
writes that do not append -- an ``observe`` of an older or repeated date,
and :meth:`RPPTable.prune_channel` -- build new lists first (copy on write),
so no earlier snapshot ever changes; :meth:`RPPTable.from_snapshot` copies
the prefix, on restore only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class PhaseHistory(Mapping[int, int]):
    """send-date -> phase of a channel's deliveries when the snapshot was taken.

    An immutable prefix view of the channel's history lists: entries
    appended later lie beyond its length, and every other write replaces
    the lists (see the module documentation).  It is a value: equal to any
    mapping with the same items, and fingerprinted by content.
    """

    __slots__ = ("_dates", "_phases", "_length")

    def __init__(self, dates: List[int], phases: List[int]) -> None:
        self._dates = dates
        self._phases = phases
        self._length = len(dates)

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[int]:
        return islice(self._dates, self._length)

    def __getitem__(self, date: int) -> int:
        index = bisect_left(self._dates, date, 0, self._length)
        if index < self._length and self._dates[index] == date:
            return self._phases[index]
        raise KeyError(date)

    def __repr__(self) -> str:
        return f"PhaseHistory({dict(self)!r})"

    def copy_lists(self) -> Tuple[List[int], List[int]]:
        """Private copies of the viewed (dates, phases) prefix."""
        return self._dates[:self._length], self._phases[:self._length]


class ChannelRecord:
    """Reception history of one incoming channel."""

    __slots__ = ("max_date", "dates", "phases")

    def __init__(
        self, max_date: int = 0, dates: Optional[List[int]] = None,
        phases: Optional[List[int]] = None,
    ) -> None:
        self.max_date = max_date
        #: delivered send-dates, ascending; ``phases`` runs parallel to it.
        self.dates: List[int] = [] if dates is None else dates
        self.phases: List[int] = [] if phases is None else phases

    def observe(self, send_date: int, phase: int) -> None:
        if send_date > self.max_date:
            self.max_date = send_date
        dates = self.dates
        if not dates or send_date > dates[-1]:
            dates.append(send_date)
            self.phases.append(phase)
            return
        # Not an append: copy on write, snapshots keep viewing the old lists.
        dates = self.dates = list(dates)
        phases = self.phases = list(self.phases)
        index = bisect_left(dates, send_date)
        if dates[index] == send_date:
            phases[index] = phase
        else:
            dates.insert(index, send_date)
            phases.insert(index, phase)

    def entries_after(self, date: int) -> List[Tuple[int, int]]:
        """(send_date, phase) of delivered messages with send_date > date."""
        index = bisect_right(self.dates, date)
        return list(zip(self.dates[index:], self.phases[index:]))

    def prune_up_to(self, date: int) -> int:
        """Drop entries with send_date <= date (garbage collection); return count.
        The kept entries move to new lists (copy on write)."""
        index = bisect_right(self.dates, date)
        if index:
            self.dates = self.dates[index:]
            self.phases = self.phases[index:]
        return index


class RPPTable:
    """Received-Per-Phase table covering every incoming channel of a process."""

    def __init__(self) -> None:
        self._channels: Dict[int, ChannelRecord] = {}

    def _channel(self, sender: int) -> ChannelRecord:
        record = self._channels.get(sender)
        if record is None:
            record = self._channels[sender] = ChannelRecord()
        return record

    # ------------------------------------------------------------------ write
    def observe(self, sender: int, send_date: int, phase: int) -> None:
        self._channel(sender).observe(send_date, phase)

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
        self._channel(sender).max_date += by

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
        return sum(len(c.dates) for c in self._channels.values())

    # ----------------------------------------------------- garbage collection
    def prune_channel(self, sender: int, up_to_date: int) -> int:
        record = self._channels.get(sender)
        if record is None:
            return 0
        return record.prune_up_to(up_to_date)

    # ------------------------------------------------------------ checkpoints
    def snapshot(self) -> Dict[int, Dict[str, object]]:
        """Per channel, ``Maxdate`` and a :class:`PhaseHistory` of the
        history so far: O(channels), the history itself is shared."""
        return {
            sender: {"max_date": rec.max_date, "phases": PhaseHistory(rec.dates, rec.phases)}
            for sender, rec in self._channels.items()
        }

    @classmethod
    def from_snapshot(cls, snapshot: Optional[Dict[int, Dict[str, object]]]) -> "RPPTable":
        table = cls()
        if snapshot:
            for sender, data in snapshot.items():
                dates, phases = data["phases"].copy_lists()
                table._channels[sender] = ChannelRecord(data["max_date"], dates, phases)
        return table
