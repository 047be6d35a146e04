"""Interface between the simulation substrate and fault-tolerance protocols.

The simulator knows nothing about HydEE, checkpointing or message logging; it
only exposes *hooks* that a protocol implements.  This mirrors the structure
of the paper's prototype, which plugs into the nemesis channel layer of
MPICH2: the protocol sees every message send and delivery, may piggyback
metadata, may charge extra sender-side CPU time (payload memcpy for
sender-based logging), and during recovery may defer or suppress application
sends (orphan messages, phase gating).

The concrete protocols live in :mod:`repro.ftprotocols` and
:mod:`repro.core.protocol` (HydEE itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
    Union,
)

from repro.errors import ConfigurationError, ProtocolError
from repro.results.metrics import MetricSet
from repro.simulator.engine import Condition
from repro.simulator.messages import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.simulation import Simulation


def add_metric(info: Dict[str, Any], key: str, value: Any) -> None:
    """Add a protocol metric to a flat mapping, rejecting duplicates.

    Subclasses build their :meth:`ProtocolHooks.extra_metrics` mapping with
    this helper so that a protocol layer re-using a name already claimed by
    another layer (e.g. a subclass shadowing a :class:`ProtocolStatistics`
    counter) fails loudly instead of silently overwriting it.
    """
    if key in info:
        raise ConfigurationError(f"duplicate protocol metric name {key!r}")
    info[key] = value


class SendAction(Enum):
    """What the protocol wants the substrate to do with an application send."""

    #: Transmit the message normally.
    SEND = "send"
    #: Do not transmit: the message is an orphan being regenerated during
    #: recovery; the sender's state advances as if it had been sent
    #: (Algorithm 2, lines 13-15 of the paper).
    SUPPRESS = "suppress"
    #: Hold the message until ``condition`` fires, then ask the protocol again.
    DEFER = "defer"


class SendDecision(NamedTuple):
    """Outcome of :meth:`ProtocolHooks.on_app_send` (immutable: protocols
    hand out shared instances on the per-message path)."""

    action: SendAction = SendAction.SEND
    #: Condition to wait on when ``action`` is DEFER.
    condition: Optional[Condition] = None
    #: Extra sender-side CPU time charged by the protocol (e.g. log memcpy,
    #: separate piggyback message latency).
    extra_cpu_time: float = 0.0

    @classmethod
    def send(cls, extra_cpu_time: float = 0.0) -> "SendDecision":
        if not extra_cpu_time:
            return _PLAIN_SEND
        return cls(SendAction.SEND, None, extra_cpu_time)

    @classmethod
    def suppress(cls) -> "SendDecision":
        return cls(SendAction.SUPPRESS, None, 0.0)

    @classmethod
    def defer(cls, condition: Condition) -> "SendDecision":
        return cls(SendAction.DEFER, condition, 0.0)


_PLAIN_SEND = SendDecision()


#: An epoch state, or the delta of two: ``column -> key -> number`` (the
#: epoch-state contract in :class:`ProtocolHooks`).
EpochState = Dict[str, Dict[Any, Any]]
_NO_KEYS: Dict[Any, Any] = {}


def _key_union(before: Mapping[Any, Any], after: Mapping[Any, Any]) -> Iterable[Any]:
    """Keys of either mapping, in a deterministic order: ``after``'s own when
    both hold the same set, sorted otherwise."""
    if before.keys() == after.keys():
        return after
    return sorted(before.keys() | after.keys())


def linear_delta(before: EpochState, after: EpochState) -> EpochState:
    """``after - before``, leaf by leaf; a missing key or column counts as 0."""
    delta: EpochState = {}
    for column in _key_union(before, after):
        old, new = before.get(column, _NO_KEYS), after.get(column, _NO_KEYS)
        if old.keys() == new.keys():
            delta[column] = {key: value - old[key] for key, value in new.items()}
        else:
            delta[column] = {
                key: new.get(key, 0) - old.get(key, 0) for key in _key_union(old, new)
            }
    return delta


def delta_mismatch(d1: EpochState, d2: EpochState) -> Optional[Tuple[str, Any]]:
    """The first ``(column, key)`` at which two deltas do not describe the
    same linear advance, or ``None``.

    Integers must be equal and floats close (an accumulated compute time may
    differ by an ulp between iterations); a negative leaf is a mismatch too:
    a counter went backwards, so a rollback or a garbage collection ran
    between the snapshots.  Columns compare as whole dicts first (C speed).
    """
    for column in _key_union(d1, d2):
        a, b = d1.get(column, _NO_KEYS), d2.get(column, _NO_KEYS)
        if a == b and (not a or min(a.values()) >= 0):
            continue
        for key in _key_union(a, b):
            x, y = a.get(key, 0), b.get(key, 0)
            close = (isinstance(x, float) or isinstance(y, float)) and math.isclose(
                x, y, rel_tol=1e-9, abs_tol=1e-18
            )
            if x < 0 or y < 0 or not (x == y or close):
                return column, key
    return None


class ProtocolHooks:
    """No-op protocol: native execution without fault tolerance.

    Every method has a default implementation so that protocols only override
    what they need.  The hook call sites are:

    ``attach``
        called once by :class:`repro.simulator.simulation.Simulation` after
        all ranks are created.
    ``on_app_send``
        called for every application/collective message before it enters the
        network; may mutate ``message.piggyback`` / ``piggyback_bytes``.
    ``on_message_arrival``
        called when a message reaches its destination, before matching; only
        asked when the protocol overrides it (message logging).
    ``on_app_deliver``
        called when a message is matched to the receiving application.
    ``on_iteration_boundary``
        called by the rank driver after each completed application iteration;
        may return a generator to be executed inline by the rank (used for
        coordinated checkpointing).
    ``ff_epoch_snapshot`` / ``ff_epoch_apply``
        called by the hybrid director to batch failure-free epochs (the
        epoch-state contract below).
    ``on_failure``
        called by the failure injector with the set of failed ranks.
    ``recovery_in_progress``
        consulted by the deadlock detector: while recovery is active a
        momentarily empty event queue is not necessarily a deadlock.
    """

    name: str = "none"
    #: whether :meth:`on_app_send` / :meth:`on_message_arrival` carry state
    #: (sequence stamping, payload logging, duplicate suppression) and must
    #: therefore be invoked per message even during analytic fast-forward
    #: (:mod:`repro.simulator.hybrid`).  Protocols whose message hooks are
    #: the no-op defaults leave this False so the fast path can skip them.
    ff_send_hook: bool = False

    def __init__(self) -> None:
        self.sim: Optional["Simulation"] = None

    # ------------------------------------------------------------ lifecycle
    def attach(self, sim: "Simulation") -> None:
        self.sim = sim

    # ------------------------------------------------------- failure-free path
    def on_app_send(self, rank: int, message: Message) -> SendDecision:
        return SendDecision.send()

    def on_app_deliver(self, rank: int, message: Message) -> None:
        return None

    def on_message_arrival(
        self, rank: int, message: Message
    ) -> Union[bool, Sequence[Message]]:
        """Called when a message reaches the destination's MPI layer, before
        matching.  Return ``False`` to silently discard it (used by
        message-logging protocols to suppress duplicates re-sent by a
        recovering process), ``True`` to deliver it normally, or a sequence
        of messages to deliver *instead*, in order (used to release messages
        the protocol held back to restore per-channel FIFO order; an empty
        sequence means the message was consumed but not suppressed)."""
        return True

    def on_iteration_boundary(self, rank: int, iteration: int, state: Any):
        """Return ``None`` or a generator executed inline by the rank driver."""
        return None

    # ----------------------------------------- batched fast-forward (hybrid)
    # The epoch-state contract.  Send-determinism makes a failure-free epoch
    # *linear*: Algorithm 1's per-process state and every volume counter
    # advance by the same amount each iteration, so the hybrid director
    # (:mod:`repro.simulator.hybrid`) skips the application and the message
    # hooks for whole checkpoint intervals.  Its probe: snapshot, drive one
    # ordinary iteration, snapshot again; :func:`linear_delta` of consecutive
    # snapshots; when :func:`delta_mismatch` finds none between the deltas,
    # replay the last one ``n`` times through :meth:`ff_epoch_apply`.
    #
    # An epoch state maps ``column -> key -> number``: a column is a family
    # of counters (``"hydee.date"``, ``"pstats"``), a key whatever names one
    # (a rank, a ``(rank, sender)`` channel, a field); an absent key is 0.
    # The director adds its own columns (per-rank statistics, channel
    # volumes) to the mapping the protocol returns and verifies the lot as
    # one state; a protocol applies the columns it wrote.  The default here
    # is ``None``: no batching, the per-message fast-forward path.
    # ``ClusteredProtocolBase`` is the other default, HydEE the one protocol
    # with columns of its own.

    def ff_epoch_snapshot(self) -> Optional[EpochState]:
        """A fresh epoch state of what the protocol owns (the caller adds
        columns to it), or ``None``: no batched fast-forward."""
        return None

    def ff_epoch_apply(self, delta: EpochState, n: int) -> None:
        """Advance the protocol's columns by ``n`` times a verified ``delta``."""
        raise ProtocolError(
            f"protocol {self.name!r} does not implement batched fast-forward"
        )

    # ----------------------------------------------------------- failure path
    def on_failure(self, failed_ranks: Iterable[int], time: float) -> None:
        return None

    def recovery_in_progress(self) -> bool:
        return False

    # ------------------------------------------------------------ accounting
    def memory_usage_bytes(self) -> Dict[int, int]:
        """Per-rank protocol memory footprint (log buffers, determinants...)."""
        return {}

    def extra_metrics(self) -> Dict[str, Any]:
        """Protocol-namespace metric names -> values (no ``protocol.`` prefix).

        Override (extending ``super().extra_metrics()`` with
        :func:`add_metric`) to publish protocol counters; they appear as
        ``protocol.<name>`` in the run's :class:`MetricSet`.
        """
        return {}

    def metrics(self) -> MetricSet:
        """The ``protocol.*`` namespace of the run's metric tree.

        Raises :class:`~repro.errors.ConfigurationError` when two protocol
        layers publish the same metric name.
        """
        metrics = MetricSet()
        metrics.set("protocol.name", self.name)
        for key, value in self.extra_metrics().items():
            metrics.set(f"protocol.{key}", value)
        return metrics



@dataclass
class ControlMessage:
    """A protocol control message carried outside the application channels.

    The paper's recovery traffic (``Rollback``, ``LastDate``, ``Log``,
    ``Orphan``, ``OwnPhase``, ``OrphanNotification``, ``NotifySendLog``,
    ``NotifySendMsg``) is modelled with these.  They are delivered through
    :class:`ControlPlane` with a fixed small latency and are accounted
    separately from application traffic.
    """

    sender: int
    dest: int
    kind: str
    data: Any = None
    size_bytes: int = 32


#: Pseudo-rank address of the recovery process (Algorithm 4).
RECOVERY_PROCESS = -2


#: Latency of protocol control messages.
CONTROL_LATENCY_S = 2.0e-6


class ControlPlane:
    """Delivers protocol control messages with a fixed latency.

    Control messages do not traverse the application FIFO channels; they are
    delivered to a single protocol callback.  The plane keeps counters so
    experiments can report the volume of recovery traffic.
    """

    def __init__(self, engine) -> None:
        self._engine = engine
        self.latency_s = CONTROL_LATENCY_S
        self.messages_sent = 0
        self.bytes_sent = 0
        self._handler = None
        self._buffer: Optional[List[Tuple[float, ControlMessage]]] = None

    def set_handler(self, handler) -> None:
        """``handler(control_message)`` invoked at delivery time."""
        self._handler = handler

    def send(
        self,
        sender: int,
        dest: int,
        kind: str,
        data: Any = None,
        size_bytes: int = 32,
    ) -> None:
        msg = ControlMessage(sender=sender, dest=dest, kind=kind, data=data, size_bytes=size_bytes)
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        if self._handler is None:
            raise RuntimeError("control plane has no handler; protocol not attached")
        if self._buffer is not None:
            self._buffer.append((self._engine.now + self.latency_s, msg))
            return
        self._engine.post(self.latency_s, self._handler, msg)

    # ------------------------------------------------- buffered fast path
    def begin_buffering(self) -> None:
        """Collect sends in a FIFO buffer instead of the event queue.

        The hybrid executor's batched checkpoint boundaries fire bursts of
        identical-latency control messages while the clock is frozen; queuing
        each through the engine costs a heap round-trip per message for an
        order the plain FIFO already guarantees (same send instant, same
        latency).  Between :meth:`begin_buffering` and :meth:`flush`,
        messages accumulate with their would-be delivery times instead.
        """
        if self._buffer is None:
            self._buffer = []

    def flush(self, bound: Optional[float] = None) -> None:
        """Deliver buffered messages in FIFO order and stop buffering.

        Messages whose delivery time is at or past ``bound`` (the next
        failure strike) are handed back to the engine untouched -- they must
        interleave with the strike's events, exactly as if they had been
        scheduled normally.
        """
        buffered, self._buffer = self._buffer, None
        if not buffered:
            return
        handler = self._handler
        engine = self._engine
        for fire_at, msg in buffered:
            if bound is not None and fire_at >= bound:
                engine.schedule_at(fire_at, handler, msg)
            else:
                handler(msg)
