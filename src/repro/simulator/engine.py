"""Deterministic discrete-event simulation engine.

The engine is a classic time-ordered event queue.  All behaviour of the
substrate (message transfers, compute delays, protocol control traffic,
failures) is expressed as callbacks scheduled at absolute simulation times.
Ties are broken by a monotonically increasing sequence number so that two
runs with identical inputs execute events in exactly the same order, which is
what makes the replay/recovery comparisons in the test-suite meaningful.

Hot-path design notes
---------------------
Scheduling and draining events is the single hottest path of the simulator
(one entry per message, per compute delay, per control message), so the
implementation deliberately avoids Python-level overhead:

* queue entries are plain **lists** ``[time, seq, callback, args, state]``
  rather than objects: ordering uses C-level list lexicographic comparison
  (time first, then the unique ``seq``), so no Python ``__lt__`` is ever
  invoked and no ``__init__`` runs per event;
* the queue is two-tier: a **drain** list (sorted ascending, consumed by
  index -- popping the next event is O(1)) plus a small overflow **heap**
  receiving events scheduled while the engine runs.  The earliest entry of
  the two tiers executes next, which reproduces exactly the single-heap
  (time, seq) order; when the drain is exhausted the heap is sorted and
  becomes the next drain.  This turns the dominant cost -- one O(log n)
  sift-down per executed event -- into an amortised O(log k) where k is the
  number of events scheduled since the last generation;
* ``run`` is one loop, which hoists the queue tiers into locals and
  re-synchronises them around callbacks (a callback may schedule, cancel,
  or trigger a lazy compaction);
* :meth:`SimulationEngine.schedule_many` batches the bookkeeping for callers
  that inject many events at once (rank start-up, grouped replays,
  benchmark floods);
* :meth:`SimulationEngine.schedule` and :meth:`~SimulationEngine.schedule_at`
  are the only entry points per time base, and each hands back the bare
  queue entry: no handle object is built per event.  Rank resumes, send
  completions and control messages drop it; the transport, the one caller
  that cancels, keeps each arrival's entry for
  :meth:`~SimulationEngine.cancel`;
* completion is a flag, not a call: :attr:`SimulationEngine.halt` is read
  before every event, and its owner (the simulation) rewrites it whenever
  completion may have changed, so an exact run pays one attribute load per
  event instead of a predicate call.

Scheduled times must be finite: ``NaN`` compares false against everything,
so a single ``NaN`` time would silently corrupt the queue ordering (and with
it determinism); ``inf`` would park an event that can never run.  Both are
rejected with :class:`~repro.errors.SimulationError` at scheduling time.

The ``state`` slot of an entry is ``_PENDING`` (may run), ``_EXECUTED``
(popped and run) or ``_CANCELLED`` (skipped when reached; lazily compacted).
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Final, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

#: Always False: the mypyc-compiled build of this module is gone (an
#: infinitely fast queue bought at most 1.17x end to end).  The name stays
#: because ``benchmarks/observatory/{cli,layers}.py`` import it.
COMPILED_CORE: bool = False

_INF: Final = math.inf

#: queue-entry indexes / states (plain ints: list slots, not attributes).
_TIME: Final = 0
_STATE: Final = 4
_PENDING: Final = 0
_EXECUTED: Final = 1
_CANCELLED: Final = 2


class SimulationEngine:
    """Time-ordered event queue with deterministic tie-breaking."""

    #: lazy compaction threshold: rebuild once at least this many cancelled
    #: entries linger *and* they outnumber the live ones.
    COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        #: sorted generation being consumed front-to-back.
        self._drain: List[List[Any]] = []
        self._drain_idx: int = 0
        #: min-heap of entries scheduled since the drain was built.
        self._heap: List[List[Any]] = []
        self._seq = 0
        #: current simulation time in seconds.  A plain attribute, not a
        #: property: every layer reads it several times per message.  Only
        #: the engine writes it.
        self.now: float = 0.0
        self._events_processed: int = 0
        #: scheduled events that are neither cancelled nor executed yet.  A
        #: plain attribute, like ``now``: the hybrid director reads it before
        #: every event of a DES segment.  Only the engine writes it.
        self.pending_events: int = 0
        #: cancelled events still sitting in the queue tiers.
        self._cancelled: int = 0
        #: completion flag, read by :meth:`run` before every event: while it
        #: is set, ``run`` stops before the next event.  The engine never
        #: writes it; the simulation sets it when every rank is done and no
        #: armed strike is pending.
        self.halt: bool = False

    # ------------------------------------------------------------------ time
    @property
    def events_processed(self) -> int:
        return self._events_processed

    def _entry_count(self) -> int:
        """Entries physically present in the queue tiers (live + cancelled)."""
        return (len(self._drain) - self._drain_idx) + len(self._heap)

    def _note_cancelled(self) -> None:
        self.pending_events -= 1
        self._cancelled += 1
        cancelled = self._cancelled
        if cancelled >= self.COMPACT_MIN_CANCELLED and cancelled > self.pending_events:
            self._compact()

    def cancel(self, entry: List[Any]) -> None:
        """Cancel a queue entry returned by :meth:`schedule` or
        :meth:`schedule_at`; an entry that already ran or was cancelled is
        left alone."""
        if entry[_STATE] == _PENDING:
            entry[_STATE] = _CANCELLED
            self._note_cancelled()

    def _compact(self) -> None:
        """Drop cancelled entries from both tiers (amortised O(n)).

        Only reached from :meth:`cancel`, i.e. either outside
        :meth:`run` or inside an executing callback -- both points where
        ``_drain_idx`` is synchronised, so slicing the consumed prefix off
        the drain is safe (the run loops re-read the tier attributes after
        every callback).
        """
        before = self._entry_count()
        self._drain = [e for e in self._drain[self._drain_idx:] if not e[_STATE]]
        self._drain_idx = 0
        self._heap = [e for e in self._heap if not e[_STATE]]
        heapify(self._heap)
        self._cancelled -= before - self._entry_count()

    # ------------------------------------------------------------ scheduling
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> List[Any]:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be finite and non-negative; ``NaN``/``inf`` would
        corrupt the queue order (or never run) and are rejected.  Returns
        the queue entry itself, an opaque token whose only use is
        :meth:`cancel`.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"cannot schedule an event with a negative or non-finite delay (delay={delay})"
            )
        self._seq += 1
        event = [self.now + delay, self._seq, callback, args, _PENDING]
        heappush(self._heap, event)
        self.pending_events += 1
        return event

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> List[Any]:
        """Schedule ``callback(*args)`` at absolute simulation ``time``.

        ``time`` must be finite (no ``NaN``/``inf``) and not in the past.
        Returns the queue entry, as :meth:`schedule` does.
        """
        # A single comparison chain rejects past times, NaN and +/-inf: NaN
        # compares false against everything, inf fails the right-hand bound.
        if not self.now <= time < _INF:
            if time != time or time in (_INF, -_INF):
                raise SimulationError(
                    f"cannot schedule an event at a non-finite time (t={time})"
                )
            raise SimulationError(
                f"cannot schedule an event at t={time} before current time t={self.now}"
            )
        self._seq += 1
        event = [time, self._seq, callback, args, _PENDING]
        heappush(self._heap, event)
        self.pending_events += 1
        return event

    def schedule_many(
        self, events: Iterable[Tuple[float, Callable[..., None], Tuple[Any, ...]]]
    ) -> None:
        """Schedule a batch of ``(delay, callback, args)`` entries at once.

        Equivalent to calling :meth:`schedule` per entry (same validation,
        same deterministic insertion order) but with the per-event
        bookkeeping hoisted out of the loop; no entry is handed back, so
        batch-scheduled events cannot be cancelled individually.
        """
        now = self.now
        heap = self._heap
        push = heappush
        seq = self._seq
        scheduled = 0
        try:
            for delay, callback, args in events:
                if not 0.0 <= delay < _INF:
                    raise SimulationError(
                        "cannot schedule an event with a negative or non-finite delay "
                        f"(delay={delay})"
                    )
                seq += 1
                push(heap, [now + delay, seq, callback, args, _PENDING])
                scheduled += 1
        finally:
            self._seq = seq
            self.pending_events += scheduled

    def advance_to(self, time: float) -> None:
        """Jump the clock forward to ``time`` without executing anything.

        This is the epoch-skip primitive of the hybrid execution mode
        (:mod:`repro.simulator.hybrid`): an analytically fast-forwarded
        failure-free epoch ends with one clock jump instead of thousands of
        per-message events.  The jump refuses to skip over any pending live
        event -- those must be drained (or be scheduled later than ``time``)
        first, otherwise they would execute in the past.
        """
        if not self.now <= time < _INF:
            raise SimulationError(
                f"cannot advance the clock to t={time} (now t={self.now})"
            )
        head = self._peek_time()
        if head is not None and head < time:
            raise SimulationError(
                f"cannot advance the clock to t={time} past a pending event "
                f"at t={head}"
            )
        self.now = time

    # ------------------------------------------------------------ queue core
    def _peek_time(self) -> Optional[float]:
        """Earliest live event time without consuming it (None when empty).

        The drain tier is only read: the run loop holds ``_drain_idx`` in a
        local while a stop predicate -- which may peek -- runs, so consuming
        cancelled drain entries here would discount them twice.  Cancelled
        heap heads are popped; the loop re-reads ``heap[0]``.
        """
        drain = self._drain
        idx = self._drain_idx
        while idx < len(drain) and drain[idx][_STATE]:
            idx += 1
        heap = self._heap
        while heap and heap[0][_STATE]:
            heappop(heap)
            self._cancelled -= 1
        head = drain[idx] if idx < len(drain) else None
        if heap and (head is None or heap[0] < head):
            head = heap[0]
        if head is None:
            return None
        head_time: float = head[_TIME]
        return head_time

    # --------------------------------------------------------------- running
    def run(self, stop_predicate: Optional[Callable[[], bool]] = None) -> str:
        """Run events until the queue is empty, :attr:`halt` is set or
        ``stop_predicate`` holds.

        Returns ``"empty"`` or ``"stopped"``.  Before *every* event (never
        batched away) the loop reads :attr:`halt` and then, while the flag is
        clear, calls ``stop_predicate``: the exact event count at which a run
        stops is part of the determinism contract.  A predicate is therefore
        not called once the flag has stopped the run.
        """
        # The queue tiers live in locals; ``_drain_idx`` is committed before
        # each callback and every local re-read after it, because callbacks
        # may schedule, cancel and compact.  A drain list is never appended
        # to, only replaced (here and by ``_compact``), so its length is
        # read once per list.
        drain = self._drain
        end = len(drain)
        idx = self._drain_idx
        heap = self._heap
        while True:
            if self.halt or (stop_predicate is not None and stop_predicate()):
                self._drain_idx = idx
                return "stopped"
            # Pop the earliest live entry across both tiers,
            # dropping cancelled entries on the way (fused peek/pop).
            while True:
                if idx < end:
                    entry = drain[idx]
                    if heap and heap[0] < entry:
                        entry = heappop(heap)
                    else:
                        idx += 1
                elif heap:
                    if len(heap) > 1:
                        heap.sort()
                        self._drain = drain = heap
                        self._heap = heap = []
                        end = len(drain)
                        entry = drain[0]
                        idx = 1
                    else:
                        entry = heap.pop()
                else:
                    self._drain_idx = idx
                    return "empty"
                if entry[4]:  # _CANCELLED (_EXECUTED never re-queued)
                    self._cancelled -= 1
                    continue
                break
            self._drain_idx = idx
            entry[4] = _EXECUTED
            self.pending_events -= 1
            self.now = entry[0]
            self._events_processed += 1
            entry[2](*entry[3])
            if self._drain is not drain:
                drain = self._drain
                end = len(drain)
            idx = self._drain_idx
            heap = self._heap


class Condition:
    """A one-shot or multi-shot synchronisation point.

    Protocol code fires conditions to release ranks that are blocked on
    :class:`repro.simulator.ops.WaitConditionOp` (e.g. HydEE's
    ``NotifySendMsg`` gate, Algorithm 2 line 8 / Algorithm 3 line 18) and to
    wake internal continuations (deferred sends).
    """

    __slots__ = ("name", "_fired", "_value", "_waiters")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._fired = False
        self._value: Any = None
        self._waiters: List[Callable[[Any], None]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        return self._value

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)``; invoked immediately if already fired."""
        if self._fired:
            callback(self._value)
        else:
            self._waiters.append(callback)

    def fire(self, value: Any = None) -> None:
        """Fire the condition, waking every waiter exactly once."""
        if self._fired:
            return
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            callback(value)

    def reset(self) -> None:
        """Re-arm the condition (waiters registered before reset are gone)."""
        self._fired = False
        self._value = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "fired" if self._fired else f"pending({len(self._waiters)} waiters)"
        return f"Condition({self.name!r}, {state})"
