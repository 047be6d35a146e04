"""Reliable FIFO transport between ranks.

The transport turns a :class:`repro.simulator.messages.Message` into a
delivery event scheduled on the engine according to the network model.  Two
properties matter for the paper's system model (Section II-A):

* **Reliability** — messages are never lost in failure-free execution.
* **FIFO channels** — messages between an ordered pair of processes are
  delivered in the order they were sent.  Because the transfer time depends
  on the message size, a small message could otherwise overtake a large one;
  the transport clamps the delivery time of each message to be at least the
  delivery time of the previous message on the same channel.

The transport also tracks in-flight messages so that

* coordinated checkpointing can drain intra-cluster channels,
* the failure injector can drop messages involving failed ranks (they are
  regenerated by re-execution or replayed from sender-based logs).

An arrival is one engine event, queued with
:meth:`~repro.simulator.engine.SimulationEngine.schedule_at`; the transport
keeps the queue entry it returns while the message is in flight, and drops
a message by handing that entry to ``engine.cancel``.  Given the
simulation's ``ranks``, an arrival hands the message straight to
``ranks[dest].deliver_message``; given a ``deliver`` callable instead (a
protocol with an arrival hook, or a bare transport), it calls that.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.simulator.engine import SimulationEngine
from repro.simulator.messages import Message
from repro.simulator.network import NetworkModel, RoutedNetworkModel


class Transport:
    """Schedules message deliveries according to a :class:`NetworkModel`."""

    def __init__(
        self,
        engine: SimulationEngine,
        network: NetworkModel,
        deliver: Optional[Callable[[Message], None]] = None,
        ranks: Optional[Mapping[int, Any]] = None,
    ) -> None:
        if (deliver is None) == (ranks is None):
            raise SimulationError("a transport delivers either to `ranks` or through `deliver`")
        self._engine = engine
        self._network = network
        self._deliver = deliver
        self._ranks = ranks
        #: the arrival callback, bound here once rather than per message.
        self._arrival = self._arrive if deliver is None else self._arrive_through
        #: topology-aware facade, when the network routes over one.
        self._routed: Optional[RoutedNetworkModel] = (
            network if isinstance(network, RoutedNetworkModel) else None
        )
        #: per-run busy-until state: owned here (not by the network model) so
        #: one RoutedNetworkModel can safely back several simulations.
        self._contention = None
        if self._routed is not None:
            from repro.topology import ContentionModel

            self._contention = ContentionModel()
        #: last scheduled arrival time per FIFO ``(source, dest)`` channel
        #: (for non-overtaking).
        self._channel_last_arrival: Dict[Tuple[int, int], float] = {}
        #: in-flight messages, in the order they were sent, each mapped to
        #: its arrival's queue entry (the token ``engine.cancel`` takes).  A
        #: message is its own key: the checkpoint drain counts the keys.
        self._in_flight: Dict[Message, List[Any]] = {}
        #: flat model only: ``transfer_time`` per wire size.  It is a pure
        #: function of the size and a run sees a handful of sizes.
        self._transfer_time: Dict[int, float] = {}
        #: summed time messages queued behind busy links (0 without topology).
        self.contention_wait_s = 0.0

    # ------------------------------------------------------------------ send
    def transmit(self, message: Message, extra_delay: float = 0.0) -> float:
        """Inject ``message`` into the network.  Returns the arrival time."""
        now = self._engine.now
        wire = message.size_bytes + message.piggyback_bytes
        start = now + extra_delay
        if self._routed is not None:
            arrival, waited = self._routed.routed_arrival(
                message.source, message.dest, wire, start, self._contention
            )
            self.contention_wait_s += waited
        else:
            transfer = self._transfer_time.get(wire)
            if transfer is None:
                transfer = self._transfer_time[wire] = self._network.transfer_time(wire)
            arrival = start + transfer
        key = (message.source, message.dest)
        previous = self._channel_last_arrival.get(key, 0.0)
        if arrival <= previous:
            # Preserve FIFO ordering: never overtake an earlier message on the
            # same channel.  nextafter (not a fixed epsilon) so the bump is
            # never absorbed by float precision at large simulation times.
            arrival = math.nextafter(previous, math.inf)
        self._channel_last_arrival[key] = arrival
        self._in_flight[message] = self._engine.schedule_at(arrival, self._arrival, message)
        return arrival

    def _arrive(self, message: Message) -> None:
        del self._in_flight[message]
        self._ranks[message.dest].deliver_message(message)

    def _arrive_through(self, message: Message) -> None:
        del self._in_flight[message]
        self._deliver(message)

    # ------------------------------------------------------------- inspection
    def in_flight_within(self, ranks: Set[int]) -> int:
        """In-flight messages whose source *and* destination are both in ``ranks``."""
        return sum(1 for msg in self._in_flight if msg.source in ranks and msg.dest in ranks)

    # ------------------------------------------------------------------ drop
    def drop_messages(self, involving: Set[int]) -> List[Message]:
        """Cancel in-flight messages to or from ``involving`` and return them,
        in the order they were sent.

        Used when ranks fail: in-flight messages to/from the failed ranks
        are lost and later regenerated or replayed from logs.
        """
        in_flight = self._in_flight
        dropped = [
            msg for msg in in_flight if msg.source in involving or msg.dest in involving
        ]
        cancel = self._engine.cancel
        for msg in dropped:
            cancel(in_flight.pop(msg))
        return dropped

    # ------------------------------------------------------------------ misc
    @property
    def topology(self):
        """The routed topology, or ``None`` for flat point-to-point models."""
        return self._routed.topology if self._routed is not None else None

    def link_stats(self, makespan: Optional[float] = None) -> Dict[str, Dict[str, Any]]:
        """Per-link traffic/utilization counters ({} without a routed topology)."""
        if self._contention is None:
            return {}
        return self._contention.link_stats(makespan=makespan)

    def tier_stats(self) -> Dict[str, Dict[str, Any]]:
        """Link counters aggregated by tier ({} without a routed topology)."""
        if self._contention is None:
            return {}
        return self._contention.tier_stats()
