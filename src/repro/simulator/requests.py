"""Non-blocking communication request handles.

Requests model the completion semantics of ``MPI_Isend``/``MPI_Irecv``: a
request is created PENDING and completes exactly once; ranks can block on one
request (``wait``), on all of a list (``waitall``) or on any (``waitany``).
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, List, Optional

from repro.errors import InvalidOperationError
from repro.simulator.messages import Message


class RequestState(Enum):
    PENDING = "pending"
    COMPLETE = "complete"
    CANCELLED = "cancelled"


# Module-level aliases: on CPython 3.9-3.11 every ``RequestState.X`` load
# inside a function goes through ``EnumType.__getattr__`` (130-210 ns against
# 25-60 ns for a global), and every message creates and completes requests.
_PENDING = RequestState.PENDING
_COMPLETE = RequestState.COMPLETE
_CANCELLED = RequestState.CANCELLED


class Request:
    """Base class for send and receive requests."""

    __slots__ = (
        "rank",
        "state",
        "completion_time",
        "value",
        "_waiters",
    )

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.state = _PENDING
        self.completion_time: Optional[float] = None
        #: completion value (the :class:`Message` for receive requests).
        self.value: Any = None
        self._waiters: List[Callable[["Request"], None]] = []

    # ------------------------------------------------------------------ api
    @property
    def complete(self) -> bool:
        return self.state is _COMPLETE

    @property
    def cancelled(self) -> bool:
        return self.state is _CANCELLED

    def test(self) -> bool:
        """Non-destructive completion test (``MPI_Test`` without deallocation)."""
        return self.complete

    def add_waiter(self, callback: Callable[["Request"], None]) -> None:
        """Register ``callback(request)`` for completion.

        Invoked immediately if already complete; a cancelled request never
        completes, so its waiters are never invoked.
        """
        if self.state is _COMPLETE:
            callback(self)
        elif self.state is _PENDING:
            self._waiters.append(callback)

    # ------------------------------------------------------------- internals
    def _complete(self, value: Any, time: float) -> None:
        """Complete once and wake the waiters.  The per-message path
        (:meth:`RankProcess.deliver_message`, the send completion of
        :class:`Simulation`) does this inline for a PENDING request and
        leaves every other state here."""
        if self.state is _CANCELLED:
            return
        if self.state is _COMPLETE:
            raise InvalidOperationError(f"{self!r} completed twice")
        self.state = _COMPLETE
        self.value = value
        self.completion_time = time
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            callback(self)

    def cancel(self) -> None:
        if self.state is _PENDING:
            self.state = _CANCELLED
            self._waiters = []


class SendRequest(Request):
    """Completion handle for a non-blocking send."""

    __slots__ = ("message",)

    def __init__(self, rank: int, message: Message) -> None:
        # Flat copy of Request.__init__: one request per message, and a
        # super() chain doubles the cost of creating it.
        self.rank = rank
        self.state = _PENDING
        self.completion_time = None
        self.value = None
        self._waiters = []
        self.message = message

    def __repr__(self) -> str:
        return (
            f"SendRequest(rank={self.rank} msg={self.message.msg_id} "
            f"{self.state.value})"
        )


class RecvRequest(Request):
    """Completion handle for a non-blocking receive (posted receive)."""

    __slots__ = ("source", "tag")

    def __init__(self, rank: int, source: int, tag: int) -> None:
        # Flat, like SendRequest.__init__.
        self.rank = rank
        self.state = _PENDING
        self.completion_time = None
        self.value = None
        self._waiters = []
        self.source = source
        self.tag = tag

    def matches(self, message: Message) -> bool:
        """The definition of MPI matching, which :class:`RankProcess` applies
        inline when a message arrives or a receive is posted."""
        return message.matches(self.source, self.tag) and message.dest == self.rank

    def __repr__(self) -> str:
        return (
            f"RecvRequest(rank={self.rank} src={self.source} "
            f"tag={self.tag} {self.state.value})"
        )
