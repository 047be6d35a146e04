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
processes' clusters only).  A strike always lands at its time, also inside a
recovery session that is still active: the protocol decides what the
overlap means (HydEE joins the session, see :mod:`repro.core.protocol`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.simulator.process import RankState

_FAILED = RankState.FAILED

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.simulation import Simulation


@dataclass(frozen=True)
class FailureEvent:
    """One fail-stop failure: these ranks fail together.

    Exactly one of ``time`` or ``at_iteration`` must be set.  An event is a
    value: no run writes to it, so one list of events can drive any number
    of simulations (what became of a strike in one run is the
    :class:`FailureInjector`'s state).

    Attributes
    ----------
    ranks:
        Ranks that fail together (concurrently).
    time:
        Absolute simulation time of the failure.
    at_iteration:
        Fire when ``rank_trigger`` completes this iteration: an ``int`` from
        1 to the run's iteration count (checked on attach).
    rank_trigger:
        The rank whose iteration boundary triggers the failure, kept as
        written; ``None`` means the first rank of ``ranks``.  A trigger
        outside ``ranks`` ("kill X when Y completes iteration N") is legal
        here; :class:`~repro.scenarios.spec.ScenarioSpec` requires it to be
        one of ``ranks``.  A timed event has none.
    """

    ranks: Tuple[int, ...]
    time: Optional[float] = None
    at_iteration: Optional[int] = None
    rank_trigger: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        if not self.ranks:
            raise ConfigurationError("a failure event needs at least one rank")
        if len(set(self.ranks)) != len(self.ranks):
            raise ConfigurationError(
                f"a failure event lists duplicate ranks: {list(self.ranks)}"
            )
        if self.time is not None and (
            not isinstance(self.time, (int, float)) or isinstance(self.time, bool)
            or not math.isfinite(self.time) or self.time < 0
        ):
            raise ConfigurationError(
                f"failure event time must be a finite number >= 0, got {self.time!r}"
            )
        if (self.time is None) == (self.at_iteration is None):
            raise ConfigurationError(
                "specify exactly one of `time` or `at_iteration` for a failure event"
            )
        at = self.at_iteration
        if at is not None and (type(at) is not int or at < 1):  # bool is not a count
            raise ConfigurationError(f"failure event at_iteration must be an int >= 1, got {at!r}")
        if self.time is not None and self.rank_trigger is not None:
            raise ConfigurationError("a timed failure event takes no rank_trigger")


class FailureInjector:
    """Schedules and fires :class:`FailureEvent` strikes.

    Every strike lands at its time, through one path (:meth:`_fire`): the
    paper's failure model allows several concurrent failures, so a strike
    inside an active recovery session is handed to the protocol like any
    other.  The injector only reads its events; every fact about a strike
    in this run (:attr:`status`, :attr:`triggers`) is its own.
    """

    def __init__(self, events: Optional[Iterable[FailureEvent]] = None) -> None:
        self.events: List[FailureEvent] = list(events or [])
        self._sim: Optional["Simulation"] = None
        self.failed_ranks: Set[int] = set()
        self.failure_times: List[float] = []
        #: what became of each strike, by index into :attr:`events`:
        #: ``"pending"``, ``"armed"`` (its boundary passed and it is
        #: scheduled), ``"fired"``, or ``"disarmed"`` (no rank of it
        #: survived to trigger or suffer it).
        self.status: List[str] = ["pending"] * len(self.events)
        #: the rank whose iteration boundary triggers each iteration-triggered
        #: strike, by index: its ``rank_trigger`` resolved, re-targeted to a
        #: surviving rank of the strike when it dies for good.
        self.triggers: Dict[int, int] = {
            index: event.ranks[0] if event.rank_trigger is None else event.rank_trigger
            for index, event in enumerate(self.events)
            if event.at_iteration is not None
        }
        #: iteration-triggered failures armed (scheduled) but not yet fired.
        #: The simulation refuses to declare completion while this is non-zero
        #: so a failure triggered by a rank's *last* iteration still strikes;
        #: every change is followed by ``Simulation.update_halt``.
        self.armed_fires: int = 0
        #: iteration-triggered events re-targeted to a surviving rank after
        #: their trigger rank died for good (see _retarget_dead_triggers).
        self.retargeted_events: int = 0
        #: iteration-triggered events disarmed because no rank of theirs
        #: survived to trigger (or suffer) them.
        self.disarmed_events: int = 0
        #: time-triggered strikes scheduled at attach() and not yet fired.
        #: The hybrid director uses this to recognise quiescence: when it is
        #: the only thing left in the engine queue, every unfired event is a
        #: *future* timed failure and the epoch in between can be skipped.
        self.pending_timed_fires: int = 0

    # ------------------------------------------------------------------ wiring
    def attach(self, sim: "Simulation") -> None:
        self._sim = sim
        iterations = sim.application.num_iterations
        for index, event in enumerate(self.events):
            bad = [r for r in event.ranks if r not in sim.ranks]
            if bad:
                raise ConfigurationError(
                    f"failure event names ranks {bad} outside the simulation's "
                    f"0..{sim.nprocs - 1}"
                )
            trigger = self.triggers.get(index)
            # An out-of-range trigger, or an iteration past the run's last,
            # would never complete: the event could silently never fire.
            if trigger is not None and trigger not in sim.ranks:
                raise ConfigurationError(
                    f"failure event trigger rank {trigger} is "
                    f"outside the simulation's 0..{sim.nprocs - 1}"
                )
            if event.at_iteration is not None and event.at_iteration > iterations:
                raise ConfigurationError(
                    f"failure event at_iteration {event.at_iteration} is past "
                    f"the run's {iterations} iterations"
                )
            if event.time is not None:
                sim.engine.schedule_at(event.time, self._fire, index)
                self.pending_timed_fires += 1

    def on_iteration_completed(self, rank: int, iteration: int) -> None:
        """Called by the rank driver after each completed iteration."""
        if self._sim is None or not self.triggers:
            return
        armed = [
            index
            for index, trigger in self.triggers.items()
            if trigger == rank
            and self.status[index] == "pending"
            and iteration >= self.events[index].at_iteration
        ]
        if armed:
            # Fire "now" (zero delay so the failing rank has fully returned
            # from its iteration first) -- as ONE event striking in spec
            # order, not one event per strike: same-time events dispatch in
            # insertion order only, and several strikes armed by one boundary
            # must not leave their relative order to that tie-break.
            self._arm(armed)

    # ------------------------------------------------------------------ firing
    def _arm(self, indices: List[int]) -> None:
        """Schedule the strikes ``indices`` to land now, as one batch."""
        for index in indices:
            self.status[index] = "armed"
        self.armed_fires += len(indices)
        self._sim.update_halt()
        self._sim.engine.schedule(0.0, self._fire_armed_batch, indices)

    def _fire_armed_batch(self, indices: List[int]) -> None:
        """Land the strikes armed by one boundary, in spec order."""
        for index in indices:
            self.armed_fires -= 1
            self._fire(index)
        self._sim.update_halt()

    def _fire(self, index: int) -> None:
        event = self.events[index]
        if event.time is not None:
            # The attach()-scheduled entry, the only one a timed event has.
            self.pending_timed_fires -= 1
        self.status[index] = "fired"
        # "Alive" is the rank's *current* state, not failure history: a rank
        # that failed, was rolled back and restarted by the protocol can fail
        # again (stochastic fault traces routinely re-draw the same node).
        # Ranks that are dead right now are skipped, as before.
        alive = []
        for rank in event.ranks:
            proc = self._sim.ranks.get(rank)
            if proc is not None and proc.state is not _FAILED:
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
        """Keep iteration-triggered strikes firable after their trigger dies.

        A pending ``at_iteration`` strike whose trigger has been fail-stopped
        -- and *not* restarted by the protocol's recovery, which runs
        synchronously inside the failure notification -- would wait for an
        iteration completion that can never happen, so the simulation could
        never converge on it.  The strike is re-triggered on the first
        surviving rank of its own ``ranks`` (firing immediately if that rank
        is already past ``at_iteration``); when no rank of the strike
        survives, it is disarmed: every rank it would kill is already dead.

        Triggers that were rolled back and restarted by the protocol are
        left alone -- they will complete their iterations again.
        """
        sim = self._sim
        refire = []
        for index, trigger in self.triggers.items():
            if self.status[index] != "pending":
                continue
            proc = sim.ranks.get(trigger)
            if proc is None or proc.state is not _FAILED:
                continue
            event = self.events[index]
            survivor = None
            for rank in event.ranks:
                proc = sim.ranks.get(rank)
                if proc is not None and proc.state is not _FAILED:
                    survivor = proc
                    break
            if survivor is None:
                self.status[index] = "disarmed"
                self.disarmed_events += 1
                continue
            self.retargeted_events += 1
            self.triggers[index] = survivor.rank
            if survivor.completed_iterations >= event.at_iteration:
                # The new trigger already passed the boundary: fire now (via
                # the armed path so completion still waits for the strike).
                refire.append(index)
        if refire:
            # One batched event for every re-triggered strike (see
            # on_iteration_completed: simultaneous strikes land in spec
            # order, not engine insertion order).
            self._arm(refire)

    # ------------------------------------------------------------- lookahead
    def next_timed_failure_time(self) -> Optional[float]:
        """Earliest unfired time-triggered strike (None when none remain).

        Drives the hybrid director's epoch boundaries: a fast-forwarded
        epoch must end a guard window *before* this time so the strike, and
        the recovery it triggers, play out in exact DES.
        """
        return min(
            (
                event.time
                for event, status in zip(self.events, self.status)
                if event.time is not None and status == "pending"
            ),
            default=None,
        )

    def next_iteration_trigger(self) -> Optional[int]:
        """Earliest unfired iteration-triggered boundary (None when none)."""
        return min(
            (
                self.events[index].at_iteration
                for index in self.triggers
                if self.status[index] == "pending"
            ),
            default=None,
        )
