"""Fail-stop failure injection.

The paper's failure model (Section II-A) is fail-stop with possibly multiple
concurrent failures.  The injector supports scheduling failures

* at an absolute simulation time,
* when a rank completes a given application iteration,
* as a group (several ranks failing at the same instant, e.g. a node or a
  whole cluster), which is how the "multiple concurrent failures" experiments
  are expressed.

When a failure fires, the injector notifies the attached protocol through
:meth:`repro.simulator.protocol_api.ProtocolHooks.on_failure`; the protocol is
responsible for rolling back the appropriate ranks (for HydEE: the failed
processes' clusters only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Set

from repro.errors import ConfigurationError, SimulationError
from repro.simulator.process import RankState

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.simulation import Simulation


def validate_failure_group(what: str, ranks: Sequence[int],
                           time: Optional[float]) -> None:
    """Shared (ranks, time) validation of every failure-description layer.

    :class:`FailureEvent`, the declarative
    :class:`~repro.scenarios.spec.FailureSpec` and the trace-level
    :class:`~repro.faults.trace.TraceEntry` all describe "these ranks fail
    together at this time" and share one rule set: at least one rank, no
    duplicates, and -- when a time is given -- a finite number >= 0.
    """
    if not ranks:
        raise ConfigurationError(f"a {what} needs at least one rank")
    if len(set(ranks)) != len(ranks):
        raise ConfigurationError(f"a {what} lists duplicate ranks: {list(ranks)}")
    if time is not None:
        if not isinstance(time, (int, float)) or isinstance(time, bool) \
                or not math.isfinite(time):
            raise ConfigurationError(
                f"{what} time must be a finite number, got {time!r}"
            )
        if time < 0:
            raise ConfigurationError(f"{what} time must be >= 0, got {time!r}")


@dataclass
class FailureEvent:
    """Specification of one failure to inject.

    Exactly one of ``time`` or ``(rank_trigger, at_iteration)`` must be set.

    Attributes
    ----------
    ranks:
        Ranks that fail together (concurrently).
    time:
        Absolute simulation time of the failure.
    at_iteration:
        Fire when ``rank_trigger`` (defaults to the first rank of ``ranks``)
        completes this iteration.
    """

    ranks: Sequence[int]
    time: Optional[float] = None
    at_iteration: Optional[int] = None
    rank_trigger: Optional[int] = None
    fired: bool = field(default=False, init=False)
    #: times this event's strike was postponed behind an active recovery
    #: session (see FailureInjector.RETRY_DELAY_S / MAX_EVENT_DEFERRALS).
    deferrals: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        validate_failure_group("failure event", self.ranks, self.time)
        if (self.time is None) == (self.at_iteration is None):
            raise ConfigurationError(
                "specify exactly one of `time` or `at_iteration` for a failure event"
            )
        if self.rank_trigger is None:
            self.rank_trigger = self.ranks[0]
        # NOTE: a trigger *outside* ranks stays legal at this level ("kill X
        # when Y completes iteration N" is a useful test harness); the
        # declarative FailureSpec is stricter because retargeting after the
        # trigger dies only works within the event's own ranks.


class FailureInjector:
    """Schedules and fires :class:`FailureEvent` objects.

    A strike that lands while the protocol's recovery session is still
    active is *deferred*: re-scheduled every :data:`RETRY_DELAY_S` until
    recovery completes, then fired.  The paper's protocols handle multiple
    *simultaneous* failures (one event, several ranks) but model recovery
    sessions as non-overlapping; stochastic fault traces
    (:mod:`repro.faults`) routinely draw a failure inside another
    failure's recovery window, and killing the run there would bias every
    Monte Carlo statistic toward calm replicas.
    """

    #: deferral quantum for strikes landing during an active recovery.
    RETRY_DELAY_S = 5.0e-5
    #: per-event cap on consecutive deferrals: 100k x RETRY_DELAY_S = five
    #: simulated seconds of one uninterrupted recovery session, orders of
    #: magnitude past any legal scenario -- only a protocol whose
    #: recovery_in_progress() is stuck true can reach it.
    MAX_EVENT_DEFERRALS = 100_000

    def __init__(self, events: Optional[Iterable[FailureEvent]] = None) -> None:
        self.events: List[FailureEvent] = list(events or [])
        self._sim: Optional["Simulation"] = None
        self.failed_ranks: Set[int] = set()
        self.failure_times: List[float] = []
        #: iteration-triggered failures armed (scheduled) but not yet fired.
        #: The simulation refuses to declare completion while this is non-zero
        #: so a failure triggered by a rank's *last* iteration still strikes.
        self.armed_fires: int = 0
        #: iteration-triggered events re-targeted to a surviving rank after
        #: their trigger rank died for good (see _retarget_dead_triggers).
        self.retargeted_events: int = 0
        #: iteration-triggered events disarmed because no rank of theirs
        #: survived to trigger (or suffer) them.
        self.disarmed_events: int = 0
        #: strikes postponed because a recovery session was still active
        #: (each RETRY_DELAY_S postponement counts once).
        self.deferred_fires: int = 0
        #: time-triggered strikes scheduled at attach() and not yet fired.
        #: The hybrid director uses this to recognise quiescence: when it is
        #: the only thing left in the engine queue, every unfired event is a
        #: *future* timed failure and the epoch in between can be skipped.
        self.pending_timed_fires: int = 0
        #: id()s of timed events whose attach()-scheduled entry was consumed
        #: (identity, not equality: FailureEvent is a value-equal dataclass).
        self._timed_consumed: Set[int] = set()

    # ------------------------------------------------------------------ wiring
    def attach(self, sim: "Simulation") -> None:
        self._sim = sim
        for event in self.events:
            bad = [r for r in event.ranks if r not in sim.ranks]
            if bad:
                raise ConfigurationError(
                    f"failure event names ranks {bad} outside the simulation's "
                    f"0..{sim.nprocs - 1}"
                )
            if event.rank_trigger is not None and event.rank_trigger not in sim.ranks:
                # An out-of-range trigger would never complete an iteration:
                # the event could silently never fire.
                raise ConfigurationError(
                    f"failure event trigger rank {event.rank_trigger} is "
                    f"outside the simulation's 0..{sim.nprocs - 1}"
                )
            if event.time is not None:
                sim.engine.schedule_at(event.time, self._fire, event)
                self.pending_timed_fires += 1

    def on_iteration_completed(self, rank: int, iteration: int) -> None:
        """Called by the rank driver after each completed iteration."""
        if self._sim is None:
            return
        armed = []
        for event in self.events:
            if (
                not event.fired
                and event.at_iteration is not None
                and event.rank_trigger == rank
                and iteration >= event.at_iteration
            ):
                self.armed_fires += 1
                event.fired = True
                armed.append(event)
        if armed:
            # Fire "now" (zero delay so the failing rank has fully returned
            # from its iteration first) -- as ONE event striking in spec
            # order, not one event per strike: same-time events dispatch in
            # insertion order only, and several strikes armed by one boundary
            # must not leave their relative order to that tie-break.
            self._sim.engine.schedule(0.0, self._fire_armed_batch, armed)

    # ------------------------------------------------------------------ firing
    def _recovery_active(self) -> bool:
        return self._sim is not None and self._sim.protocol.recovery_in_progress()

    def _defer_batch(self, events) -> None:
        for event in events:
            self.deferred_fires += 1
            event.deferrals += 1
            if event.deferrals > self.MAX_EVENT_DEFERRALS:
                # A recovery session that never winds down is a protocol bug;
                # without this guard the retry event would keep the queue
                # non-empty forever and mask what should be a deadlock report.
                # (Per event, not run-wide: a dense-but-legal trace may rack
                # up many deferrals in total across many strikes.)
                raise SimulationError(
                    f"one failure strike deferred more than "
                    f"{self.MAX_EVENT_DEFERRALS} times: the protocol reports "
                    "recovery_in_progress() indefinitely"
                )
        self._sim.engine.schedule(self.RETRY_DELAY_S, self._fire_armed_batch, list(events))

    def _fire_armed_batch(self, events) -> None:
        """Land armed strikes in spec order; re-defer the remainder together.

        A strike that opens a recovery session defers every strike behind it
        in the batch (the completion predicate keeps waiting for them), so
        the relative order of simultaneous strikes is the deterministic spec
        order, never an engine tie-break.
        """
        for index, event in enumerate(events):
            if self._recovery_active():
                self._defer_batch(events[index:])
                return
            self.armed_fires -= 1
            self._fire(event)

    def _fire(self, event: FailureEvent) -> None:
        if self._sim is None:
            return
        if event.time is not None and event.fired:
            return
        if event.time is not None and id(event) not in self._timed_consumed:
            # The original attach()-scheduled engine entry is gone now,
            # whether the strike lands immediately or enters the deferred
            # pipeline below (armed_fires then keeps the run waiting for it).
            self._timed_consumed.add(id(event))
            self.pending_timed_fires -= 1
        if self._recovery_active():
            # Arm the strike while it waits: its nominal time has passed, so
            # the run must not be declared complete before it lands (same
            # contract as an iteration-triggered strike armed by a rank's
            # last iteration).
            self.armed_fires += 1
            self._defer_batch([event])
            return
        event.fired = True
        # "Alive" is the rank's *current* state, not failure history: a rank
        # that failed, was rolled back and restarted by the protocol can fail
        # again (stochastic fault traces routinely re-draw the same node).
        # Ranks that are dead right now are skipped, as before.
        alive = []
        for rank in event.ranks:
            proc = self._sim.ranks.get(rank)
            if proc is not None and proc.state is not RankState.FAILED:
                alive.append(rank)
        if not alive:
            return
        now = self._sim.engine.now
        self.failure_times.append(now)
        self.failed_ranks.update(alive)
        self._sim.kill_ranks(alive)
        self._sim.protocol.on_failure(alive, now)
        self._retarget_dead_triggers()

    def _retarget_dead_triggers(self) -> None:
        """Keep iteration-triggered events firable after their trigger dies.

        An unfired ``at_iteration`` event whose ``rank_trigger`` has been
        fail-stopped -- and *not* restarted by the protocol's recovery, which
        runs synchronously inside the failure notification -- would wait for
        an iteration completion that can never happen, so the simulation
        could never converge on it.  The event is re-triggered on the first
        surviving rank of its own ``ranks`` (firing immediately if that rank
        is already past ``at_iteration``); when no rank of the event
        survives, the event is disarmed: every rank it would kill is already
        dead.

        Triggers that were rolled back and restarted by the protocol are
        left alone -- they will complete their iterations again.
        """
        sim = self._sim
        if sim is None:
            return
        refire = []
        for event in self.events:
            if event.fired or event.at_iteration is None:
                continue
            trigger = sim.ranks.get(event.rank_trigger)
            if trigger is None or trigger.state is not RankState.FAILED:
                continue
            survivor = None
            for rank in event.ranks:
                proc = sim.ranks.get(rank)
                if proc is not None and proc.state is not RankState.FAILED:
                    survivor = proc
                    break
            if survivor is None:
                event.fired = True
                self.disarmed_events += 1
                continue
            self.retargeted_events += 1
            event.rank_trigger = survivor.rank
            if survivor.completed_iterations >= event.at_iteration:
                # The new trigger already passed the boundary: fire now (via
                # the armed path so completion still waits for the strike).
                event.fired = True
                self.armed_fires += 1
                refire.append(event)
        if refire:
            # One batched event for every re-triggered strike (see
            # on_iteration_completed: simultaneous strikes land in spec
            # order, not engine insertion order).
            sim.engine.schedule(0.0, self._fire_armed_batch, refire)

    # ------------------------------------------------------------- lookahead
    def next_timed_failure_time(self) -> Optional[float]:
        """Earliest unfired time-triggered strike (None when none remain).

        Drives the hybrid director's epoch boundaries: a fast-forwarded
        epoch must end a guard window *before* this time so the strike, and
        the recovery it triggers, play out in exact DES.
        """
        times = [e.time for e in self.events if e.time is not None and not e.fired]
        return min(times) if times else None

    def next_iteration_trigger(self) -> Optional[int]:
        """Earliest unfired iteration-triggered boundary (None when none)."""
        its = [
            e.at_iteration
            for e in self.events
            if e.at_iteration is not None and not e.fired
        ]
        return min(its) if its else None

    @property
    def any_failure_injected(self) -> bool:
        return bool(self.failure_times)
