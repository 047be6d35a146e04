"""Top-level simulation orchestration.

:class:`Simulation` wires together the engine, the transport, the rank
processes, the (optional) fault-tolerance protocol, the failure injector, the
trace recorder and the stable storage, and exposes the handful of operations
that protocols need in order to implement rollback-recovery:

* :meth:`Simulation.initiate_send` / :meth:`initiate_isend` -- the single code
  path every application message goes through (protocol hooks are applied
  here; a SEND decision is transmitted and counted in one place,
  :meth:`_attempt_send`, for blocking sends, non-blocking sends and the
  retries of deferred ones),
* the arrival binding -- the transport hands each arriving message to
  :meth:`_on_message_arrival`, which asks ``protocol.on_message_arrival``,
  only when the protocol overrides that hook (message logging); under any
  other protocol it hands it to :meth:`_on_plain_arrival`, straight to the
  destination's matching,
* :meth:`Simulation.replay_message` -- inject a message replayed from a
  sender-based log (bypasses the application, Section III-B of the paper),
* :meth:`Simulation.kill_ranks`, :meth:`restart_rank`, :meth:`drop_in_flight`
  -- failure and rollback mechanics,
* :meth:`Simulation.run` -- run to completion with deadlock detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Set, Tuple
)

from repro.errors import DeadlockError, SimulationError
from repro.results.metrics import MetricSet
from repro.simulator.channel import Transport
from repro.simulator.communicator import Communicator
from repro.simulator.engine import Condition, SimulationEngine
from repro.simulator.failures import FailureInjector
from repro.simulator.messages import Message
from repro.simulator.network import MyrinetMXModel, NetworkModel
from repro.simulator.process import RankProcess, RankState
from repro.simulator.protocol_api import ControlPlane, ProtocolHooks, SendAction
from repro.simulator.requests import RequestState, SendRequest
from repro.simulator.stable_storage import StableStorage, snapshot_strategy_for
from repro.simulator.statistics import SimulationStatistics
from repro.simulator.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.hybrid import Calibration, IterationGate

_PENDING = RequestState.PENDING
_COMPLETE = RequestState.COMPLETE

#: Delay charged when a rank restarts from a checkpoint.
RESTART_DELAY_S = 1.0e-3
#: Stable-storage write bandwidth for checkpoints.
CHECKPOINT_WRITE_BANDWIDTH = 1.0e9


@dataclass
class SimulationConfig:
    """Tunable parameters of a simulation run."""

    #: Network performance model (defaults to the paper's Myrinet 10G model).
    network: Optional[NetworkModel] = None
    #: Record individual communication events (disable for large sweeps).
    record_trace_events: bool = True
    #: Raise :class:`~repro.errors.DeadlockError` when the queue empties
    #: before every rank has finished.
    raise_on_incomplete: bool = True
    #: Execution mode: ``"exact"`` (full DES) or ``"hybrid"`` (analytically
    #: fast-forward failure-free epochs, DES guard windows around failures --
    #: see :mod:`repro.simulator.hybrid`).
    execution: str = "exact"
    #: Key of this run's failure-free timing identity
    #: (:meth:`ScenarioSpec.calibration_key`); when the active in-memory
    #: :class:`repro.simulator.calibration.CalibrationCache` holds a
    #: calibration under it, the hybrid director skips the DES warm-up.
    calibration_key: Optional[str] = None


@dataclass
class SimulationResult:
    """Outcome of :meth:`Simulation.run`."""

    status: str
    makespan: float
    stats: SimulationStatistics
    trace: TraceRecorder
    rank_results: Dict[int, Any] = field(default_factory=dict)
    rank_states: Dict[int, str] = field(default_factory=dict)
    #: rank -> what it waits on, for every rank that did not finish (empty
    #: when the run completed): a ``deadlock`` is diagnosable from the result.
    blocked: Dict[int, str] = field(default_factory=dict)
    #: namespaced metric tree (``sim.*``, ``protocol.*``, ``network.*``,
    #: ``links.*``) -- the typed face of the run, see :mod:`repro.results`.
    metrics: MetricSet = field(default_factory=MetricSet)

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def metric(self, path: str, default: Any = None) -> Any:
        """Dotted-path metric lookup (e.g. ``protocol.replayed_messages``)."""
        return self.metrics.get(path, default)


class Simulation:
    """A single simulated execution of an application under a protocol."""

    def __init__(
        self,
        application: Any,
        nprocs: int,
        protocol: Optional[ProtocolHooks] = None,
        failures: Optional[FailureInjector] = None,
        config: Optional[SimulationConfig] = None,
    ) -> None:
        if nprocs < 1:
            raise SimulationError("a simulation needs at least one rank")
        self.config = config or SimulationConfig()
        if self.config.execution not in ("exact", "hybrid"):
            raise SimulationError(
                f"unknown execution mode {self.config.execution!r} "
                "(expected 'exact' or 'hybrid')"
            )
        self.application = application
        self.nprocs = nprocs
        self.engine = SimulationEngine()
        self.network: NetworkModel = self.config.network or MyrinetMXModel()
        self.trace = TraceRecorder(record_events=self.config.record_trace_events)
        self.stats = SimulationStatistics()
        self.storage = StableStorage(
            write_bandwidth_bytes_per_s=CHECKPOINT_WRITE_BANDWIDTH,
            snapshot_strategy=snapshot_strategy_for(application),
        )
        self.control = ControlPlane(self.engine)
        self.protocol: ProtocolHooks = protocol or ProtocolHooks()
        # Arrival binding: only a protocol that overrides the arrival hook
        # (message logging) is asked about every arrival; otherwise the
        # transport hands each message straight to its rank's matching.
        if type(self.protocol).on_message_arrival is ProtocolHooks.on_message_arrival:
            arrival = self._on_plain_arrival
        else:
            arrival = self._on_message_arrival
        self.transport = Transport(self.engine, self.network, arrival)
        self.failure_injector = failures

        self.ranks: Dict[int, RankProcess] = {}
        for rank in range(nprocs):
            proc = RankProcess(self, rank, application)
            proc.comm = Communicator(self, proc)
            self.ranks[rank] = proc

        self._done_count = 0
        #: hybrid-execution hooks (None in exact mode; see
        #: :mod:`repro.simulator.hybrid`).  ``iteration_gate`` parks rank
        #: coroutines at an iteration limit, ``_iteration_listener`` feeds the
        #: rate-model calibration, ``hybrid_stats`` surfaces ``sim.hybrid.*``,
        #: ``ff_clock`` holds the per-rank projected clocks ``comm.now`` reads
        #: while a fast-forwarded epoch has the engine clock frozen.
        self.iteration_gate: Optional["IterationGate"] = None
        self._iteration_listener: Optional[Callable[[int, int], None]] = None
        self.ff_clock: Optional[Dict[int, float]] = None
        self.hybrid_stats: Optional[Dict[str, Any]] = None
        #: the warm-up calibration a hybrid run (or a bare
        #: ``HybridDirector.calibrate()``) fitted itself (model, warm-up, park
        #: times); what the campaign pre-warm puts into the calibration cache.
        self.hybrid_calibration: Optional["Calibration"] = None
        self.stats.protocol = getattr(self.protocol, "name", "none")
        self.protocol.attach(self)
        if self.failure_injector is not None:
            self.failure_injector.attach(self)

    # ------------------------------------------------------------- send paths
    def initiate_send(
        self,
        proc: RankProcess,
        dest: int,
        payload: Any,
        tag: int,
        size_bytes: int,
    ) -> Tuple[str, Any]:
        """Blocking-send entry point.

        Returns ``("sent", cpu_time)``, ``("suppressed", cpu_time)`` or
        ``("deferred", condition)``.
        """
        message = Message(proc.rank, dest, tag, size_bytes, payload)
        return self._attempt_send(proc, message)

    def _attempt_send(self, proc: RankProcess, message: Message) -> Tuple[str, Any]:
        decision = self.protocol.on_app_send(proc.rank, message)
        if decision.action is SendAction.DEFER:
            if decision.condition is None:
                raise SimulationError("protocol returned DEFER without a condition")
            return "deferred", decision.condition
        if decision.action is SendAction.SUPPRESS:
            proc.sends_initiated += 1
            self.trace.record_send(message, self.engine.now, suppressed=True)
            return "suppressed", self.network.send_overhead_s
        # SEND
        proc.sends_initiated += 1
        extra_cpu = decision.extra_cpu_time
        self.transport.transmit(message, extra_cpu)
        self.trace.record_send(message, self.engine.now)
        rstats = proc.rstats
        rstats.sends += 1
        rstats.bytes_sent += message.size_bytes
        return "sent", self.network.send_overhead_s + extra_cpu

    def initiate_isend(
        self,
        proc: RankProcess,
        dest: int,
        payload: Any,
        tag: int,
        size_bytes: int,
    ) -> SendRequest:
        """Non-blocking-send entry point; always returns a request.

        The first attempt runs here, from the sender's own coroutine step
        (so its incarnation is the live one); a deferred send is retried by
        :meth:`_isend_attempt` once the protocol's condition fires.
        """
        message = Message(proc.rank, dest, tag, size_bytes, payload)
        request = SendRequest(proc.rank, message)
        outcome, info = self._attempt_send(proc, message)
        if outcome == "deferred":
            self._defer_isend(proc, message, request, info, proc.incarnation)
        else:
            # Charge the sender-side CPU cost (piggyback handling, log
            # memcpy) to the rank by delaying its next resume: an MPI_Isend
            # call does not return before the library has done that work.
            proc.pending_overhead += info
            self.engine.post(info, self._complete_send_request, request)
        return request

    def _defer_isend(
        self, proc: RankProcess, message: Message, request: SendRequest,
        condition: Condition, incarnation: int,
    ) -> None:
        condition.add_waiter(
            lambda _value: self._isend_attempt(proc, message, request, incarnation)
        )

    def _isend_attempt(
        self, proc: RankProcess, message: Message, request: SendRequest, incarnation: int
    ) -> None:
        """Retry a deferred isend, unless its rank failed or rolled back."""
        if incarnation != proc.incarnation or proc.state is RankState.FAILED:
            request.cancel()
            return
        outcome, info = self._attempt_send(proc, message)
        if outcome == "deferred":
            self._defer_isend(proc, message, request, info, incarnation)
            return
        proc.pending_overhead += info
        self.engine.post(info, self._complete_send_request, request)

    def _complete_send_request(self, request: SendRequest) -> None:
        # Request._complete, inline for the one state it acts on here (a
        # cancelled request stays cancelled; the value stays None).
        if request.state is _PENDING:
            request.state = _COMPLETE
            request.completion_time = self.engine.now
            waiters = request._waiters
            if waiters:
                request._waiters = []
                for callback in waiters:
                    callback(request)

    def replay_message(self, message: Message) -> None:
        """Inject a message replayed from a sender-based log (recovery path).

        The replayed clone bypasses the protocol send hook: its piggybacked
        date and phase are the ones stored in the log (Algorithm 1 line 8 /
        Algorithm 3 lines 22-24).
        """
        clone = message.clone_for_replay()
        self.transport.transmit(clone)
        self.trace.record_send(clone, self.engine.now)
        self.stats.extra["replayed_messages"] = self.stats.extra.get("replayed_messages", 0) + 1

    # -------------------------------------------------------------- delivery
    def _on_plain_arrival(self, message: Message) -> None:
        """Arrival under a protocol without an arrival hook."""
        self.ranks[message.dest].deliver_message(message)

    def _on_message_arrival(self, message: Message) -> None:
        """Arrival under a protocol that overrides the arrival hook."""
        proc = self.ranks[message.dest]
        if proc.state is RankState.FAILED:
            return
        verdict = self.protocol.on_message_arrival(proc.rank, message)
        if verdict is True:
            proc.deliver_message(message)
        elif verdict is False:
            self.stats.extra["suppressed_duplicates"] = (
                self.stats.extra.get("suppressed_duplicates", 0) + 1
            )
        else:
            # Ordered batch: the protocol held messages back to restore
            # per-channel FIFO order and releases them now (may be empty when
            # the arriving message itself is being held).
            for released in verdict:
                proc.deliver_message(released)

    def on_app_delivery(self, proc: RankProcess, message: Message) -> None:
        """Called by the rank process when a message is matched to the app."""
        overhead = self.protocol.on_app_deliver(proc.rank, message)
        if overhead is not None and overhead > 0:
            proc.pending_overhead += overhead
        self.trace.record_delivery(message, self.engine.now)
        rstats = proc.rstats
        rstats.receives += 1
        rstats.bytes_received += message.size_bytes

    # ------------------------------------------------------------- lifecycle
    def notify_iteration_completed(self, rank: int, iteration: int) -> None:
        listener = self._iteration_listener
        if listener is not None:
            # Calibration listener first: it must observe the boundary time
            # before an iteration-triggered failure can perturb the rank.
            listener(rank, iteration)
        if self.failure_injector is not None:
            self.failure_injector.on_iteration_completed(rank, iteration)

    def on_rank_done(self) -> None:
        self._done_count += 1

    # --------------------------------------------------------------- failures
    def kill_ranks(self, ranks: Iterable[int]) -> None:
        """Fail-stop the given ranks and drop messages involving them."""
        failed = set(ranks)
        for rank in sorted(failed):
            proc = self.ranks[rank]
            if proc.done:
                # A rank can fail *after* finishing (e.g. a failure armed by
                # its last iteration): it no longer counts as done, or the
                # O(1) completion predicate would fire early.
                self._done_count -= 1
            proc.fail()
        self.transport.drop_messages(involving=failed)
        self.stats.failures_injected += len(failed)

    def drop_in_flight(self, involving: Set[int]) -> List[Message]:
        return self.transport.drop_messages(involving=involving)

    def purge_undelivered_from(self, sources: Set[int]) -> int:
        """Purge unexpected-queue messages sent by ``sources`` at alive ranks."""
        purged = 0
        for proc in self.ranks.values():
            if proc.state is not RankState.FAILED:
                purged += proc.purge_messages_from(sources)
        return purged

    def restart_rank(
        self,
        rank: int,
        iteration: int,
        app_state: Any,
        sends_at_checkpoint: int = 0,
    ) -> None:
        """Restart ``rank`` from an application iteration boundary; its send
        count rewinds to the checkpoint's, the length of its logical sequence."""
        proc = self.ranks[rank]
        was_done = proc.done
        proc.restart_from_checkpoint(iteration, app_state, RESTART_DELAY_S)
        if was_done:
            # The rank had finished but is dragged back by a rollback; it will
            # finish again at the end of recovery.
            self._done_count -= 1
        proc.sends_initiated = sends_at_checkpoint
        self.trace.mark_restart(rank, sends_at_checkpoint)
        self.stats.ranks_rolled_back += 1

    # ------------------------------------------------------------------- run
    def all_done(self) -> bool:
        return all(p.done for p in self.ranks.values())

    def _should_stop(self) -> bool:
        """Completion predicate for the engine loop.

        An iteration-triggered failure armed by a rank's last iteration is
        still in the queue when every rank reports done; the run must not be
        declared complete before it strikes and recovery has played out.

        This predicate runs before *every* engine event, so it must be O(1):
        ``_done_count`` tracks :meth:`all_done` incrementally (incremented in
        :meth:`on_rank_done`, decremented when a done rank is dragged back by
        a rollback in :meth:`restart_rank`).
        """
        if self._done_count != self.nprocs:
            return False
        injector = self.failure_injector
        return injector is None or injector.armed_fires == 0

    def run(self) -> SimulationResult:
        if self.config.execution == "hybrid":
            # Imported lazily: hybrid pulls in the protocol base classes,
            # which themselves import simulator modules at load time.
            from repro.simulator.hybrid import HybridDirector

            return HybridDirector(self).run()
        return self._run_exact()

    def _run_exact(self, start: bool = True) -> SimulationResult:
        """Event-driven execution to the end of the run; ``start=False``
        when the ranks already run (a hybrid run falling back mid-way)."""
        if start:
            self._start_ranks()
        return self._finish(self.engine.run(stop_predicate=self._should_stop))

    def _start_ranks(self) -> None:
        """Inject every rank's t=0 kick-off event in one deterministic batch."""
        self.engine.schedule_many(proc.start() for proc in self.ranks.values())

    def _finish(self, reason: str) -> SimulationResult:
        """Map the engine's stop reason to a result (shared exact/hybrid)."""
        if self.all_done():
            status = "completed"
        elif reason == "empty":
            status = "deadlock"
        else:
            status = "incomplete"

        if status == "deadlock" and self.config.raise_on_incomplete:
            raise DeadlockError(self._unfinished_report())

        self._finalize_stats()
        return SimulationResult(
            status=status,
            makespan=self.stats.makespan,
            stats=self.stats,
            trace=self.trace,
            rank_results={r: p.result for r, p in self.ranks.items()},
            rank_states={r: p.state.value for r, p in self.ranks.items()},
            blocked={
                r: p.blocked_description() for r, p in self.ranks.items() if not p.done
            },
            metrics=self._build_metrics(),
        )

    # ------------------------------------------------------------- internals
    def _finalize_stats(self) -> None:
        """Fill the whole-run totals from the one place each is counted."""
        stats = self.stats
        finish_times = [p.finish_time for p in self.ranks.values() if p.finish_time is not None]
        stats.makespan = max(finish_times) if finish_times else self.engine.now
        stats.events_processed = self.engine.events_processed
        ranks = stats.ranks.values()
        stats.app_messages = sum(r.sends for r in ranks)
        stats.app_bytes = sum(r.bytes_sent for r in ranks)
        # Only the clustered protocols log payloads (and keep ``pstats``).
        pstats = getattr(self.protocol, "pstats", None)
        if pstats is not None:
            stats.logged_messages = pstats.logged_messages
            stats.logged_bytes = pstats.logged_bytes
        stats.control_messages = self.control.messages_sent
        stats.control_bytes = self.control.bytes_sent
        stats.checkpoints_taken = self.storage.writes
        stats.checkpoint_bytes = self.storage.bytes_written

    def _build_metrics(self) -> MetricSet:
        """Assemble the run's namespaced metric tree.

        Duplicate metric names (e.g. a protocol layer re-publishing a
        counter) raise :class:`~repro.errors.ConfigurationError` here, at
        the single point where the namespaces meet.
        """
        metrics = self.stats.sim_metrics()
        injector = self.failure_injector
        if injector is not None:
            # Injector health: campaigns filter on these to catch scenarios
            # whose failure schedule silently degenerated (all events
            # disarmed, armed strikes left hanging, nobody actually killed).
            metrics.set("sim.injector.armed_fires", injector.armed_fires)
            metrics.set("sim.injector.disarmed_events", injector.disarmed_events)
            metrics.set("sim.injector.failed_ranks", len(injector.failed_ranks))
            metrics.set("sim.injector.retargeted_events", injector.retargeted_events)
        if self.hybrid_stats is not None:
            # Hybrid execution quality: campaigns filter on these to spot
            # replicas that silently fell back to exact mode or calibrated
            # on noisy warm-ups.
            for key in sorted(self.hybrid_stats):
                metrics.set(f"sim.hybrid.{key}", self.hybrid_stats[key])
            reason = self.stats.extra.get("hybrid_fallback_reason")
            if reason:
                metrics.set("sim.hybrid.fallback_reason", reason)
        metrics.merge(self.protocol.metrics())
        topology = self.transport.topology
        if topology is not None and topology.has_shared_links:
            # Only contended topologies publish link metrics: a flat (or
            # absent) topology must keep records byte-identical to
            # pre-topology runs.
            metrics.set("network.topology", topology.describe())
            metrics.set("network.contention_wait_s", self.transport.contention_wait_s)
            metrics.set("links.per_link", self.transport.link_stats(makespan=self.stats.makespan))
            metrics.set("links.tiers", self.transport.tier_stats())
        return metrics

    def _unfinished_report(self) -> str:
        """The deadlock message: per unfinished rank, its state and what it waits on."""
        lines = [
            "simulation deadlock: event queue empty but ranks are not done",
            f"  recovery in progress: {self.protocol.recovery_in_progress()}",
        ]
        for rank, proc in sorted(self.ranks.items()):
            if not proc.done:
                lines.append(
                    f"  rank {rank}: state={proc.state.value} iteration={proc.completed_iterations} "
                    f"blocked on {proc.blocked_description()}"
                )
        return "\n".join(lines)
