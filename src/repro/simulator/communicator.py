"""MPI-like communicator facade used by application code.

The communicator is the only object workloads and
:mod:`repro.simulator.collectives` see, in every execution mode.  Its
blocking calls speak the op vocabulary of :mod:`repro.simulator.ops` to
whichever driver runs the rank -- the event-driven
:class:`~repro.simulator.process.RankProcess` or, inside a fast-forwarded
epoch, the hybrid director -- and only two facts differ between the two:
who initiates a non-blocking send (``_isend``) and what :attr:`now` reads.

Convention (documented in :mod:`repro.workloads.base`):

* **blocking** calls are generator functions and must be invoked with
  ``yield from`` -- e.g. ``msg = yield from comm.recv(source=3)``;
* **non-blocking** calls (``isend``, ``irecv``, ``test``) are plain calls that
  return :class:`repro.simulator.requests.Request` handles; completion is
  awaited with ``yield from comm.wait(...)`` / ``waitall`` / ``waitany``;
* collectives are blocking generator functions built on top of point-to-point
  messages so that fault-tolerance protocols observe every byte that crosses
  the network (see :mod:`repro.simulator.collectives`).

Message sizes: the simulator separates the simulated wire size
(``size_bytes``) from the Python payload, so workloads can describe class-D
NAS exchanges without allocating gigabytes.  If ``size_bytes`` is omitted, a
small size is derived from the payload repr, which is good enough for tests.
A negative size is rejected with :class:`~repro.errors.InvalidOperationError`.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import InvalidOperationError
from repro.simulator import collectives as _collectives
from repro.simulator.engine import Condition
from repro.simulator.messages import ANY_SOURCE, ANY_TAG
from repro.simulator.ops import ComputeOp, RecvOp, SendOp, WaitConditionOp, WaitOp
from repro.simulator.requests import RecvRequest, Request, SendRequest


def _default_size(payload: Any) -> int:
    if payload is None:
        return 8
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (int, float, bool)):
        return 8
    if isinstance(payload, str):
        return len(payload)
    try:
        return 8 * len(payload)  # sequences of scalars
    except TypeError:
        return 64


class Communicator:
    """Per-rank communication endpoint (the ``MPI_COMM_WORLD`` equivalent)."""

    def __init__(self, sim, rank_process) -> None:
        self._sim = sim
        self._proc = rank_process
        self._nprocs = sim.nprocs
        self._collective_seq = 0
        #: who initiates a non-blocking send: the event-driven path, except
        #: during a fast-forwarded epoch, for which the hybrid director
        #: swaps in its synchronous ``ff_send``.
        self._isend = sim.initiate_isend

    # ------------------------------------------------------------------ info
    @property
    def rank(self) -> int:
        return self._proc.rank

    @property
    def size(self) -> int:
        return self._sim.nprocs

    @property
    def now(self) -> float:
        """Current simulation time (useful for workload-side measurements):
        the engine clock, or this rank's projected clock while the engine
        clock is frozen inside a fast-forwarded epoch."""
        clock = self._sim.ff_clock
        return self._sim.engine.now if clock is None else clock[self._proc.rank]

    # ------------------------------------------------------- blocking p2p
    def send(self, dest: int, payload: Any = None, tag: int = 0, size_bytes: Optional[int] = None):
        """Blocking send.  Use as ``yield from comm.send(...)``."""
        size = _default_size(payload) if size_bytes is None else int(size_bytes)
        if not (0 <= dest < self._nprocs) or dest == self._proc.rank or size < 0:
            self._reject_send(dest, size)
        yield SendOp(dest=dest, payload=payload, tag=tag, size_bytes=size)
        return None

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive.  Returns the :class:`Message`; use ``.payload``."""
        if source != ANY_SOURCE and not (0 <= source < self._nprocs
                                         and source != self._proc.rank):
            self._check_peer(source)
        message = yield RecvOp(source=source, tag=tag)
        return message

    def sendrecv(
        self,
        dest: int,
        payload: Any,
        source: int,
        tag: int = 0,
        recv_tag: Optional[int] = None,
        size_bytes: Optional[int] = None,
    ):
        """Simultaneous send and receive (deadlock-free halo exchange helper)."""
        recv_tag = tag if recv_tag is None else recv_tag
        rreq = self.irecv(source=source, tag=recv_tag)
        sreq = self.isend(dest, payload, tag=tag, size_bytes=size_bytes)
        values = yield WaitOp(requests=[sreq, rreq], mode="all")
        return values[1]

    # --------------------------------------------------- non-blocking p2p
    def isend(
        self, dest: int, payload: Any = None, tag: int = 0, size_bytes: Optional[int] = None
    ) -> SendRequest:
        """Non-blocking send; returns a request (plain call, no yield)."""
        # The peer and size tests are inline: this is the first hop of every
        # message; the helpers run only to raise.
        size = _default_size(payload) if size_bytes is None else int(size_bytes)
        proc = self._proc
        if not (0 <= dest < self._nprocs) or dest == proc.rank or size < 0:
            self._reject_send(dest, size)
        return self._isend(proc, dest, payload, tag, size)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        """Non-blocking receive post; returns a request (plain call, no yield)."""
        proc = self._proc
        if source != ANY_SOURCE and not (0 <= source < self._nprocs and source != proc.rank):
            self._check_peer(source)
        return proc.post_receive(source, tag)

    def wait(self, request: Request):
        """Wait for one request; returns its completion value."""
        value = yield WaitOp(requests=[request], mode="one")
        return value

    def waitall(self, requests: Sequence[Request]):
        """Wait for all requests; returns the list of completion values."""
        if not requests:
            return []
        values = yield WaitOp(requests=list(requests), mode="all")
        return values

    def waitany(self, requests: Sequence[Request]):
        """Wait for the first completed request; returns ``(index, value)``."""
        if not requests:
            raise InvalidOperationError("waitany requires at least one request")
        value = yield WaitOp(requests=list(requests), mode="any")
        return value

    # ------------------------------------------------------------- local ops
    def compute(self, seconds: float, flops: Optional[float] = None):
        """Spend ``seconds`` of local computation time."""
        if seconds < 0:
            raise InvalidOperationError("compute time must be non-negative")
        if seconds > 0:
            yield ComputeOp(seconds=seconds, flops=flops)
        return None

    def wait_condition(self, condition: Condition):
        """Block until ``condition`` fires (used by protocol-aware workloads)."""
        value = yield WaitConditionOp(condition=condition)
        return value

    # ------------------------------------------------------------ collectives
    def _next_collective_tag(self) -> int:
        self._collective_seq += 1
        return _collectives.COLLECTIVE_TAG_BASE + self._collective_seq

    def barrier(self):
        """Dissemination barrier."""
        return (yield from _collectives.barrier(self))

    def bcast(self, value: Any, root: int = 0, size_bytes: Optional[int] = None):
        """Binomial-tree broadcast; every rank returns the root's value."""
        return (yield from _collectives.bcast(self, value, root, size_bytes))

    def reduce(self, value: Any, op=None, root: int = 0, size_bytes: Optional[int] = None):
        """Binomial-tree reduction to ``root`` (returns None elsewhere)."""
        return (yield from _collectives.reduce(self, value, op, root, size_bytes))

    def allreduce(self, value: Any, op=None, size_bytes: Optional[int] = None):
        """Reduce-then-broadcast allreduce."""
        return (yield from _collectives.allreduce(self, value, op, size_bytes))

    def gather(self, value: Any, root: int = 0, size_bytes: Optional[int] = None):
        """Linear gather to ``root`` (returns the list at root, None elsewhere)."""
        return (yield from _collectives.gather(self, value, root, size_bytes))

    def allgather(self, value: Any, size_bytes: Optional[int] = None):
        """Ring allgather; every rank returns the list of contributions."""
        return (yield from _collectives.allgather(self, value, size_bytes))

    def scatter(self, values: Optional[Sequence[Any]], root: int = 0,
                size_bytes: Optional[int] = None):
        """Linear scatter from ``root``; returns this rank's element."""
        return (yield from _collectives.scatter(self, values, root, size_bytes))

    def alltoall(self, values: Sequence[Any], size_bytes: Optional[int] = None):
        """Pairwise-exchange all-to-all; returns the list received (by source rank)."""
        return (yield from _collectives.alltoall(self, values, size_bytes))

    # ------------------------------------------------------------------ misc
    def _check_peer(self, peer: int) -> None:
        if not (0 <= peer < self._sim.nprocs):
            raise InvalidOperationError(
                f"rank {self.rank}: peer {peer} outside communicator of size {self._sim.nprocs}"
            )
        if peer == self.rank:
            raise InvalidOperationError(
                f"rank {self.rank}: self-sends are not supported by the simulator"
            )

    def _reject_send(self, dest: int, size: int) -> None:
        self._check_peer(dest)
        raise InvalidOperationError(
            f"rank {self.rank}: message size {size} to rank {dest} is negative"
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"Communicator(rank={self.rank}, size={self.size})"
