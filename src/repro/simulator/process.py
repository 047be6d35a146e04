"""Simulated MPI rank processes.

A rank process wraps the application coroutine (generator) and drives it:
each time the coroutine yields an operation descriptor
(:mod:`repro.simulator.ops`), the driver performs the operation, blocks the
rank if necessary, and later resumes the coroutine with the operation's
result.  Progress is always mediated by the engine's event queue so that the
interleaving of ranks is deterministic.

The process also owns the MPI matching state (posted receives and the
unexpected-message queue), the per-rank statistics, and the mechanics needed
by rollback-recovery protocols.  Matching and delivery are the two per-message
steps of the process:

* matching (:meth:`RankProcess.deliver_message`, :meth:`post_receive`) pairs
  a message with the first posted receive, in post order, whose
  ``(source, tag)`` -- wildcards included -- accepts it, exactly as
  :meth:`RecvRequest.matches` defines it, and completes that request;
* delivery (:meth:`RankProcess.deliver_to_app`) is the application-level
  event the protocol accounts, in the order the application obtains its
  messages.  It is one loop, shared by the event-driven driver and the
  hybrid fast-forward interpreter.

Rollback-recovery protocols use:

* :meth:`RankProcess.fail` -- fail-stop failure,
* :meth:`RankProcess.restart_from_checkpoint` -- rollback to an application
  iteration boundary with a restored application state,
* :meth:`RankProcess.purge_messages_from` -- discard not-yet-delivered
  messages from rolled back senders (they will be regenerated by re-execution
  or replayed from sender-based logs).
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Any, Deque, List, Optional, Sequence, Set

from repro.errors import InvalidOperationError, SimulationError
from repro.simulator.messages import ANY_SOURCE, ANY_TAG, Message
from repro.simulator.ops import (
    ComputeOp,
    Operation,
    RecvOp,
    SendOp,
    WaitConditionOp,
    WaitOp,
    describe,
)
from repro.simulator.requests import RecvRequest, Request, RequestState

_PENDING = RequestState.PENDING
_COMPLETE = RequestState.COMPLETE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.simulation import Simulation


class RankState(Enum):
    CREATED = "created"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"


# Module-level aliases of the members, for the same reason as ``_PENDING``
# and ``_COMPLETE``: on CPython 3.9-3.11 a ``RankState.X`` load inside a
# function runs ``EnumType.__getattr__`` (130-210 ns against 25-60 ns for a
# global), a cost no profiler sees, and the rank driver makes several per
# message.
_CREATED = RankState.CREATED
_RUNNING = RankState.RUNNING
_BLOCKED = RankState.BLOCKED
_DONE = RankState.DONE
_FAILED = RankState.FAILED


class RankProcess:
    """One simulated MPI rank."""

    def __init__(self, sim: "Simulation", rank: int, application: Any) -> None:
        self.sim = sim
        self.rank = rank
        self.application = application
        self.state = _CREATED
        self.incarnation = 0
        #: this rank's persistent statistics record (hot path: one dict
        #: lookup per resume/op adds up, so it is resolved once).
        self.rstats = sim.stats.rank(rank)

        # Matching state.
        self.unexpected: Deque[Message] = deque()
        self.posted: List[RecvRequest] = []

        # Application progress.
        self.start_iteration = 0
        self.completed_iterations = 0
        self.app_state: Any = None
        self.result: Any = None

        # Accounting.
        self.sends_initiated = 0
        self.blocked_since: Optional[float] = None
        self.blocked_on: Optional[Operation] = None
        self.finish_time: Optional[float] = None
        #: CPU time accumulated by non-blocking library calls (isend piggyback
        #: handling, log memcpy, determinant writes...).  It is charged to the
        #: rank the next time it is resumed, which models the cost being paid
        #: inside the library call before the application regains control.
        self.pending_overhead: float = 0.0

        self._gen = None
        self._restored_state: Any = None
        self.comm: Any = None  # set by Simulation after construction

    # ------------------------------------------------------------- lifecycle
    def start(self):
        """Create the main coroutine; returns the rank's first engine entry.

        The returned ``(delay, callback, args)`` tuple is consumed by
        :meth:`repro.simulator.engine.SimulationEngine.schedule_many`, which
        lets :meth:`Simulation.run` inject every rank's t=0 kick-off in one
        batch (same deterministic order as scheduling them one by one).
        """
        self._gen = self._main()
        self.state = _RUNNING
        return (0.0, self._advance, (self.incarnation, None, None))

    def _main(self):
        """Main driver generator: setup -> iterations -> finalize."""
        app = self.application
        rank = self.rank
        comm = self.comm
        if self._restored_state is None:
            state = app.setup(rank, self.sim.nprocs)
            iteration = 0
        else:
            state = self._restored_state
            iteration = self.start_iteration
            self._restored_state = None
        self.app_state = state
        total_iterations = app.num_iterations
        while iteration < total_iterations:
            # Hybrid execution: park at the gate until the director either
            # raises the limit (next DES segment) or replaces this coroutine
            # wholesale via fast_forward_to().  Exact mode pays one None
            # check per iteration here.
            gate = self.sim.iteration_gate
            if gate is not None and iteration >= gate.limit:
                while True:
                    gate.park(self, iteration)
                    yield WaitConditionOp(condition=gate.condition)
                    gate.unpark(self.rank)
                    gate = self.sim.iteration_gate
                    if gate is None or iteration < gate.limit:
                        break
            # Collective-internal tags restart from the same base every
            # iteration so that a rank re-executing from an iteration-boundary
            # checkpoint reproduces exactly the tags of the original
            # execution (replayed logged messages must match re-posted
            # receives).  FIFO channels keep repeated tags unambiguous.
            comm._collective_seq = 0
            yield from app.iteration(comm, rank, state, iteration)
            iteration += 1
            self.completed_iterations = iteration
            sim = self.sim
            listener = sim._iteration_listener
            if listener is not None:
                # Calibration listener first: it must observe the boundary
                # time before an iteration-triggered failure can perturb the
                # rank.
                listener(rank, iteration)
            injector = sim.failure_injector
            if injector is not None:
                injector.on_iteration_completed(rank, iteration)
            boundary = sim.protocol.on_iteration_boundary(rank, iteration, state)
            if boundary is not None:
                yield from boundary
        comm._collective_seq = 0
        self.result = yield from app.finalize(comm, rank, state)

    # -------------------------------------------------------------- stepping
    def _schedule_resume(
        self, delay: float, value: Any = None, exception: Optional[BaseException] = None
    ) -> None:
        """Resume this incarnation after ``delay`` plus its pending overhead."""
        delay += self.pending_overhead
        self.pending_overhead = 0.0
        self.sim.engine.schedule(delay, self._advance, self.incarnation, value, exception)

    def _schedule_resume_for(
        self,
        incarnation: int,
        delay: float,
        value: Any = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        """Schedule a resume bound to a specific incarnation.

        Continuations registered on requests or conditions capture the
        incarnation at registration time; if the rank has been rolled back in
        the meantime the wake-up is still an event of the run, but
        :meth:`_advance` drops it.
        """
        if incarnation == self.incarnation:
            self._schedule_resume(delay, value, exception)
        else:
            self.sim.engine.schedule(delay, self._advance, incarnation, value, exception)

    def _advance(
        self, incarnation: int, value: Any, exception: Optional[BaseException]
    ) -> None:
        """Engine-facing resume: step the coroutine to its next operation and
        perform it.

        Wake-ups of dead incarnations and of failed or finished ranks are
        ignored.  Yielding an op is the single most frequent rank action, so
        it is dispatched here, by exact type: the vocabulary is closed (five
        final classes).
        """
        if incarnation != self.incarnation:
            return
        state = self.state
        gen = self._gen
        if state is _FAILED or state is _DONE or gen is None:
            return
        if self.blocked_since is not None:
            self.rstats.blocked_time += self.sim.engine.now - self.blocked_since
            self.blocked_since = None
        self.state = _RUNNING
        self.blocked_on = None
        try:
            if exception is not None:
                op = gen.throw(exception)
            else:
                op = gen.send(value)
        except StopIteration:
            self._finish()
            return
        handler = _OP_DISPATCH.get(op.__class__)
        if handler is None:
            raise InvalidOperationError(
                f"rank {self.rank} yielded {op!r}, which is not an operation. Blocking "
                "calls must be written as `yield from comm.<call>(...)`."
            )
        handler(self, op)

    def _finish(self) -> None:
        self.state = _DONE
        self.finish_time = self.sim.engine.now
        self.rstats.finish_time = self.finish_time
        self._gen = None
        self.sim.on_rank_done()

    # ---------------------------------------------------------- op handlers
    def _handle_compute(self, op: ComputeOp) -> None:
        self.rstats.compute_time += op.seconds
        self._schedule_resume(op.seconds)

    # ------------------------------------------------------------------ send
    def _handle_blocking_send(self, op: SendOp) -> None:
        """Send, then resume after the sender-side CPU time; a deferred send
        blocks the rank until the simulation's retry of the same message
        goes through and resumes it."""
        cpu = self.sim.initiate_send(self, op.dest, op.payload, op.tag, op.size_bytes)
        if cpu is None:
            self.state = _BLOCKED
            self.blocked_on = op
            self.blocked_since = self.sim.engine.now
            return
        self._schedule_resume(cpu)

    # ------------------------------------------------------------------ recv
    def deliver_to_app(self, values: Sequence[Any]) -> None:
        """Application-level Delivery events (Section II-C of the paper).

        ``values`` are completion values in the order the *application*
        obtains them (blocking recv completion, or request order inside a
        waitall), not network-arrival order: this keeps the protocol's
        logical dates reproducible when a rolled-back process re-executes.
        Each message not yet delivered is accounted once (protocol
        date/phase/RPP updates, trace records); a send request's ``None``
        is skipped.  The event-driven driver and the hybrid fast-forward
        interpreter both deliver through this one loop.
        """
        sim = self.sim
        for value in values:
            if value.__class__ is Message and not value.app_delivered:
                value.app_delivered = True
                sim.on_app_delivery(self, value)

    def _handle_blocking_recv(self, op: RecvOp) -> None:
        request = self.post_receive(op.source, op.tag)
        if request.state is _COMPLETE:
            self.deliver_to_app((request.value,))
            self._schedule_resume(self.sim.network.recv_overhead_s, request.value)
            return
        self.state = _BLOCKED
        self.blocked_on = op
        self.blocked_since = self.sim.engine.now
        inc = self.incarnation

        def _on_complete(req, inc: int = inc) -> None:
            if inc == self.incarnation:
                self.deliver_to_app((req.value,))
            self._schedule_resume_for(inc, self.sim.network.recv_overhead_s, req.value)

        # A freshly posted receive is PENDING: its waiter list, directly.
        request._waiters.append(_on_complete)

    # ------------------------------------------------------------------ wait
    def _handle_wait(self, op: WaitOp) -> None:
        requests = op.requests
        mode = op.mode
        if mode not in ("all", "any", "one"):
            raise InvalidOperationError(f"unknown wait mode {mode!r}")
        if mode == "one" and len(requests) != 1:
            raise InvalidOperationError("wait mode 'one' expects exactly one request")
        # A cancelled request never completes: it can satisfy no wait, so a
        # wait-all over one (and a wait-any/one over nothing else) blocks
        # until the rank is rolled back.
        if mode == "all":
            remaining = 0
            for r in requests:
                if r.state is not _COMPLETE:
                    remaining += 1
            if not remaining:
                self._resume_with_all(requests)
                return
        else:
            for idx, r in enumerate(requests):
                if r.state is _COMPLETE:
                    self.deliver_to_app((r.value,))
                    self._schedule_resume(0.0, r.value if mode == "one" else (idx, r.value))
                    return
            remaining = 1
        self.state = _BLOCKED
        self.blocked_on = op
        self.blocked_since = self.sim.engine.now
        inc = self.incarnation

        def _on_completion(req: Request) -> None:
            # One call per pending request (duplicates register twice); the
            # wait is satisfied by the completion that brings the count to
            # zero, and only while the incarnation that waits is alive.
            nonlocal remaining
            remaining -= 1
            if remaining:
                return
            if inc != self.incarnation:
                if mode == "one":
                    # The wake-up of a rolled back wait-one is an event of
                    # the run all the same (dropped by _advance).
                    self._schedule_resume_for(inc, 0.0, req.value)
                return
            if mode == "all":
                self._resume_with_all(requests)
                return
            self.deliver_to_app((req.value,))
            self._schedule_resume(
                0.0, req.value if mode == "one" else (requests.index(req), req.value)
            )

        # Request.add_waiter, inline: a completed request is not waited on
        # and a cancelled one never completes.
        for r in requests:
            if r.state is _PENDING:
                r._waiters.append(_on_completion)

    def _resume_with_all(self, requests: Sequence[Request]) -> None:
        """Deliver in request order, then resume with the list of values."""
        values = [r.value for r in requests]
        self.deliver_to_app(values)
        self._schedule_resume(0.0, values)

    def _handle_wait_condition(self, op: WaitConditionOp) -> None:
        if op.condition.fired:
            self._schedule_resume(0.0, op.condition.value)
            return
        self.state = _BLOCKED
        self.blocked_on = op
        self.blocked_since = self.sim.engine.now
        op.condition.add_waiter(partial(self._schedule_resume_for, self.incarnation, 0.0))

    # ------------------------------------------------------------- matching
    # MPI-level completion.  ``(source, tag)`` is tested against the
    # wildcards inline -- the test of :meth:`RecvRequest.matches` -- and a
    # PENDING request is completed inline, as :meth:`Request._complete`
    # would; any other state is left to ``_complete`` (a cancelled request
    # stays cancelled, a second completion raises).  The application-level
    # Delivery event is *not* triggered here but in :meth:`deliver_to_app`,
    # when the application obtains the message in its own program order.

    def post_receive(self, source: int, tag: int) -> RecvRequest:
        """Post a receive; the first matching unexpected message completes it."""
        request = RecvRequest(self.rank, source, tag)
        message = self._match_unexpected(source, tag) if self.unexpected else None
        if message is None:
            self.posted.append(request)
        else:
            # A fresh request: PENDING, nobody waits on it yet.
            now = self.sim.engine.now
            request.state = _COMPLETE
            request.value = message
            request.completion_time = now
        return request

    def _match_unexpected(self, source: int, tag: int) -> Optional[Message]:
        """Remove and return the first unexpected message ``(source, tag)``
        matches, else ``None``."""
        rank = self.rank
        for idx, message in enumerate(self.unexpected):
            if ((source == ANY_SOURCE or source == message.source)
                    and (tag == ANY_TAG or tag == message.tag)
                    and message.dest == rank):
                del self.unexpected[idx]
                return message
        return None

    def deliver_message(self, message: Message) -> None:
        """Called by the simulation when ``message`` arrives at this rank: the
        first posted receive, in post order, that matches takes it, else it
        joins the unexpected queue."""
        if self.state is _FAILED:
            return
        if message.dest == self.rank:
            source = message.source
            tag = message.tag
            posted = self.posted
            for idx, request in enumerate(posted):
                if not ((request.source == source or request.source == ANY_SOURCE)
                        and (request.tag == tag or request.tag == ANY_TAG)):
                    continue
                del posted[idx]
                now = self.sim.engine.now
                if request.state is not _PENDING:
                    request._complete(message, now)
                    return
                request.state = _COMPLETE
                request.value = message
                request.completion_time = now
                waiters = request._waiters
                if waiters:
                    request._waiters = []
                    for callback in waiters:
                        callback(request)
                return
        self.unexpected.append(message)

    # -------------------------------------------------------------- failures
    def fail(self) -> None:
        """Fail-stop this rank: its coroutine and matching state are lost."""
        self.state = _FAILED
        self._gen = None
        self.blocked_on = None
        self.blocked_since = None
        for request in self.posted:
            request.cancel()
        self.posted.clear()
        self.unexpected.clear()

    def _reincarnate(self, iteration: int, app_state: Any) -> None:
        """Replace the coroutine by a fresh one starting at ``iteration``.

        Bumping the incarnation invalidates every continuation of the
        previous one (request waiters, condition waiters, queued resumes).
        """
        self.incarnation += 1
        for request in self.posted:
            request.cancel()
        self.posted.clear()
        self.blocked_on = None
        self.blocked_since = None
        self._restored_state = app_state
        self.pending_overhead = 0.0
        self.start_iteration = iteration
        self.completed_iterations = iteration
        self._gen = self._main()
        self.state = _RUNNING

    def restart_from_checkpoint(
        self, iteration: int, app_state: Any, restart_delay: float = 0.0
    ) -> None:
        """Restart the rank from an application iteration boundary.

        ``app_state`` must be a private copy (the caller typically uses
        :meth:`repro.simulator.stable_storage.CheckpointRecord.restore_app_state`).
        """
        if self.state is _CREATED:
            raise SimulationError(
                f"rank {self.rank} cannot restart before the simulation started"
            )
        # Note: a DONE rank can legitimately be restarted -- it finished its
        # work but a cluster peer failed, dragging it back to the last
        # coordinated checkpoint.
        self._reincarnate(iteration, app_state)
        self.unexpected.clear()
        self.rstats.restarts += 1
        self._schedule_resume(restart_delay)

    def fast_forward_to(self, iteration: int, app_state: Any, resume_time: float) -> None:
        """Hand the rank an analytically fast-forwarded future (hybrid mode).

        The suspended coroutine (parked at the iteration gate) is replaced by
        a fresh one resuming at ``iteration`` with ``app_state`` -- the *live*
        state object the fast-forward driver advanced in place, not a copy --
        scheduled at the rank's projected clock ``resume_time``.  Unlike
        :meth:`restart_from_checkpoint` this is not a rollback: no restart is
        counted, nothing is purged, and the unexpected queue (messages sent
        ahead during the fast-forwarded epoch) is preserved.  Library-call
        overheads accrued during fast-forward are dropped: they are part of
        the calibrated per-iteration rate, not a separate charge.
        """
        self._reincarnate(iteration, app_state)
        self.sim.engine.schedule_at(
            resume_time, self._advance, self.incarnation, None, None
        )

    def purge_messages_from(self, sources: Set[int]) -> int:
        """Drop unexpected-queue messages whose sender is in ``sources``.

        Used when those senders roll back: the messages will be regenerated
        by re-execution (and would otherwise be delivered twice).
        """
        before = len(self.unexpected)
        self.unexpected = deque(m for m in self.unexpected if m.source not in sources)
        return before - len(self.unexpected)

    # ------------------------------------------------------------------ info
    @property
    def done(self) -> bool:
        return self.state is _DONE

    def blocked_description(self) -> str:
        if self.blocked_on is None:
            return "not blocked"
        return describe(self.blocked_on)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RankProcess(rank={self.rank}, state={self.state.value}, "
            f"it={self.completed_iterations}, inc={self.incarnation})"
        )


#: exact-type fast dispatch for :meth:`RankProcess._advance`.
_OP_DISPATCH = {
    ComputeOp: RankProcess._handle_compute,
    SendOp: RankProcess._handle_blocking_send,
    RecvOp: RankProcess._handle_blocking_recv,
    WaitOp: RankProcess._handle_wait,
    WaitConditionOp: RankProcess._handle_wait_condition,
}
