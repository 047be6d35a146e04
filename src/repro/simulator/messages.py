"""Message objects and matching semantics for the MPI simulation substrate.

A :class:`Message` is an *application* message (generated by workloads and
collectives and visible to fault-tolerance protocols); the *control* messages
the paper's protocol exchanges outside the application channels (rollback
notifications, recovery-process traffic) are
:class:`repro.simulator.protocol_api.ControlMessage` instead.

A message carries both a payload (arbitrary Python object) and a byte size
used by the network model: the paper's overheads are functions of the wire
size, not of the Python object.  Fault-tolerance protocols attach their
piggybacked data (date, phase, ...) to :attr:`Message.piggyback`; the
resulting extra wire bytes are accounted by
:meth:`repro.simulator.network.NetworkModel.wire_size`.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

#: Wildcard source rank, mirroring ``MPI_ANY_SOURCE``.
ANY_SOURCE: int = -1

#: Wildcard tag, mirroring ``MPI_ANY_TAG``.
ANY_TAG: int = -1

_MESSAGE_COUNTER = itertools.count(1)


class Message:
    """A single simulated message.

    Slotted (not a dataclass): one instance is allocated per simulated
    send, making this the second-hottest allocation after scheduled events.

    Parameters
    ----------
    source, dest:
        Sending and receiving ranks.
    tag:
        Application tag used for matching (collectives use reserved tags).
    size_bytes:
        Application payload size on the wire, *excluding* protocol piggyback.
    payload:
        The Python object transported.  For synthetic workloads this is often
        a small token rather than a real buffer; correctness checks compare
        payloads between reference and recovered executions.

    Further attributes (filled in as the message moves through the system):
    ``msg_id`` (unique, monotonically increasing identifier), ``piggyback``
    (protocol metadata, e.g. ``{"date": 12, "phase": 3}`` for HydEE),
    ``piggyback_bytes`` (extra wire bytes added by the protocol),
    ``inter_cluster`` (True when sender and receiver belong to different
    process clusters; ``None`` without clustering), ``replayed`` (re-sent
    from a sender-based log during recovery) and ``app_delivered`` (set once
    the receiving application obtained the message -- the application-level
    Delivery event of Section II-C -- guarding against double accounting
    when a request is waited on more than once).
    """

    __slots__ = (
        "source",
        "dest",
        "tag",
        "size_bytes",
        "payload",
        "msg_id",
        "piggyback",
        "piggyback_bytes",
        "inter_cluster",
        "replayed",
        "app_delivered",
    )

    def __init__(
        self,
        source: int,
        dest: int,
        tag: int,
        size_bytes: int,
        payload: Any = None,
        msg_id: Optional[int] = None,
        piggyback: Optional[Dict[str, Any]] = None,
        piggyback_bytes: int = 0,
    ) -> None:
        self.source = source
        self.dest = dest
        self.tag = tag
        self.size_bytes = size_bytes
        self.payload = payload
        self.msg_id = next(_MESSAGE_COUNTER) if msg_id is None else msg_id
        self.piggyback = {} if piggyback is None else piggyback
        self.piggyback_bytes = piggyback_bytes
        self.inter_cluster: Optional[bool] = None
        self.replayed = False
        self.app_delivered = False

    def matches(self, source: int, tag: int) -> bool:
        """Return True when this message matches a receive posted for
        ``(source, tag)``, honouring the ``ANY_SOURCE``/``ANY_TAG`` wildcards."""
        source_ok = source == ANY_SOURCE or source == self.source
        tag_ok = tag == ANY_TAG or tag == self.tag
        return source_ok and tag_ok

    @property
    def total_bytes(self) -> int:
        """Wire size including protocol piggyback bytes."""
        return self.size_bytes + self.piggyback_bytes

    def clone_for_replay(self) -> "Message":
        """Create a copy of this message for replay from a sender-based log.

        The clone keeps the original source/dest/tag/payload and piggyback
        (date and phase are part of what the log stores in Algorithm 1,
        line 8) but gets a fresh ``msg_id`` and is flagged as replayed.
        """
        clone = Message(
            source=self.source,
            dest=self.dest,
            tag=self.tag,
            size_bytes=self.size_bytes,
            payload=self.payload,
        )
        clone.piggyback = dict(self.piggyback)
        clone.piggyback_bytes = self.piggyback_bytes
        clone.inter_cluster = self.inter_cluster
        clone.replayed = True
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        flags = []
        if self.replayed:
            flags.append("replayed")
        if self.inter_cluster:
            flags.append("inter")
        extra = f" [{','.join(flags)}]" if flags else ""
        return (
            f"Message(#{self.msg_id} {self.source}->{self.dest} tag={self.tag} "
            f"size={self.size_bytes}B{extra})"
        )
