"""Hybrid analytical/DES execution of failure-free epochs.

Between failures a HydEE-style run is a steady-state loop: every rank executes
the same iteration body, checkpoints on the same schedule and exchanges the
same messages.  Simulating those epochs event by event is what dominates
Monte Carlo campaigns, yet none of the per-event detail matters for the
metrics the campaigns aggregate -- only the protocol byte/checkpoint counters
and the per-rank clocks at the epoch boundary do.

:class:`HybridDirector` exploits this.  It runs a warm-up of ordinary DES
until two checkpoint periods agree, calibrates a per-rank iteration-rate
model from the observed boundary times, and then alternates between

* **fast-forward epochs**: the director becomes the second interpreter of
  the op vocabulary (:mod:`repro.simulator.ops`).  Every rank's iteration
  generator runs against its ordinary
  :class:`~repro.simulator.communicator.Communicator` and yields the same
  descriptors the event-driven rank driver interprets; the director executes
  them synchronously (no event queue), matching messages through the normal
  MPI-matching machinery so protocol hooks, per-rank statistics and
  application state stay *exactly* what full DES would produce.  The seam
  is two facts: who initiates a non-blocking send (``Communicator._isend``,
  swapped to :meth:`HybridDirector.ff_send` for the epoch) and what
  ``comm.now`` reads (``Simulation.ff_clock``).  Rank clocks are advanced
  analytically with the rate model and the engine's clock jumps once per
  epoch (:meth:`~repro.simulator.engine.SimulationEngine.advance_to`).
  Inside an epoch, whole checkpoint intervals are *batched* -- neither the
  generators nor the message hooks run -- once two probe iterations driven
  per message agree on their state delta (:meth:`HybridDirector.
  _advance_span`).  What that state is, and which protocols take part, is
  the epoch-state contract written down in :mod:`repro.simulator.
  protocol_api`.  Once two whole intervals agree as well, the span jumps to
  its last recovery line: the checkpoints in between are counted, not built
  (:meth:`HybridDirector._batch_intervals`).  A probe that fails -- the cold
  first iteration of a run started from the calibration cache, recovery
  residue -- costs its window: the next is planned at doubling distances;
* **DES guard windows** around every failure injection, sized by the rate
  model's projection of where each rank is when the strike lands
  (:meth:`RateModel.iterations_at`).  The fast-forward stops
  :data:`GUARD_ITERATIONS` whole iterations before the earliest such count,
  so two complete iterations and the struck one precede the failure; the
  gate then holds DES to ``est + GUARD_ITERATIONS + 1 +`` spread slack,
  ``est`` being the latest such count.  Strike, rollback, replay and the
  re-execution up to that count run under the unmodified event-driven
  simulator, so recovery behaviour is byte-identical to exact mode.  The
  far side is not tighter on purpose: one iteration less doubled the worst
  struck makespan error (0.65 % -> 1.37 %).

Ranks synchronise with the director through an :class:`IterationGate`: the
rank driver parks its coroutine at the gate's iteration limit, and the
director either raises the limit (next DES segment) or replaces the parked
coroutine wholesale after a fast-forwarded epoch
(:meth:`~repro.simulator.process.RankProcess.fast_forward_to`).

When the run cannot be fast-forwarded safely -- workload not declared
:attr:`~repro.workloads.base.Application.ff_compatible`, bounded runs,
protocols with opaque boundary hooks, or a warm-up whose iteration durations
are too irregular to trust -- the director degrades gracefully to plain exact
execution and reports why (``sim.hybrid.*`` metrics plus a
``hybrid_fallback_reason`` entry in ``stats.extra``).

Accepted approximations (documented in the README): per-rank sub-iteration
clock stagger is collapsed to the rate model's projection at epoch
boundaries, and message/delivery timestamps inside a fast-forwarded epoch are
projections rather than transport-accurate times.  Both are bounded by the
calibration spread check and do not affect protocol byte accounting.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from statistics import median
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import SimulationError
from repro.ftprotocols.base import ClusteredProtocolBase
from repro.simulator import calibration as _calibration
from repro.simulator.engine import Condition
from repro.simulator.messages import ANY_SOURCE, Message
from repro.simulator.ops import ComputeOp, Operation, RecvOp, SendOp, WaitOp, describe
from repro.simulator.process import RankState
from repro.simulator.protocol_api import (
    EpochState,
    ProtocolHooks,
    SendAction,
    delta_mismatch,
    linear_delta,
)
from repro.simulator.requests import RecvRequest, Request, RequestState, SendRequest
from repro.workloads.base import Application

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.process import RankProcess
    from repro.simulator.simulation import Simulation, SimulationResult

_COMPLETE = RequestState.COMPLETE

#: Iterations of exact DES kept on each side of a failure injection.
GUARD_ITERATIONS = 2
#: Calibration guard of the flat model: fall back to exact execution when the
#: warm-up's pooled iteration durations spread (max-min)/median beyond this.
MAX_DT_SPREAD = 0.25


class IterationGate:
    """Synchronisation point between rank drivers and the hybrid director.

    ``Simulation.iteration_gate`` is ``None`` in exact mode (the rank driver
    pays one ``None`` check per iteration).  In hybrid mode the driver parks
    its coroutine whenever its iteration counter reaches :attr:`limit` and
    waits on :attr:`condition`; the director observes quiescence through
    :attr:`parked` and releases ranks either by raising the limit and firing
    the condition, or by discarding the parked coroutines entirely after a
    fast-forwarded epoch.
    """

    __slots__ = ("limit", "condition", "parked")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.condition = Condition("iteration-gate")
        #: rank -> (incarnation, park_time, iteration, app_state); the
        #: incarnation lets the director ignore entries of coroutines that
        #: were rolled back after parking.
        self.parked: Dict[int, Tuple[int, float, int, Any]] = {}

    def park(self, proc: "RankProcess", iteration: int, state: Any) -> None:
        self.parked[proc.rank] = (
            proc.incarnation, proc.sim.engine.now, iteration, state
        )

    def unpark(self, rank: int) -> None:
        self.parked.pop(rank, None)


class RateModel:
    """Per-rank iteration-rate model calibrated from the DES warm-up.

    Two flavours share one interface:

    * **flat** (``phases is None``, ``interval == 0``): ``dt[rank]`` is the
      median duration of an iteration.  Used when the protocol takes no
      periodic checkpoints or one per iteration -- in the latter case the
      cost is already inside every sampled delta -- so the model needs no
      checkpoint term at all (``ckpt_extra`` is zero).
    * **phase-indexed** (``phases[rank]`` = list of ``interval`` durations):
      under a periodic checkpoint schedule the steady-state iteration
      durations are *periodic in* ``i % interval`` -- link-contention beats
      plus the checkpoint-cost ripple repeat exactly once the transient has
      decayed -- so the model stores one duration per phase, verified
      against the previous period during calibration.  Projection walks the
      phase sequence via prefix sums and is exact (to float noise) in steady
      state, which is what lets workloads with strongly bimodal iteration
      durations (ring, cg, lu, ...) fast-forward at all.
    """

    __slots__ = ("dt", "ckpt_extra", "interval", "dt_mean", "dt_spread",
                 "phases", "_period", "_cum")

    def __init__(self, dt: Dict[int, float], ckpt_extra: Dict[int, float],
                 interval: int, dt_spread: float,
                 phases: Optional[Dict[int, List[float]]] = None) -> None:
        self.dt = dt
        self.ckpt_extra = ckpt_extra
        #: checkpoint interval in iterations of the phase model (0 = flat).
        self.interval = interval
        self.dt_mean = sum(dt.values()) / len(dt)
        self.dt_spread = dt_spread
        #: rank -> per-phase durations (phase of the delta ending at count
        #: ``i`` is ``i % interval``); ``None`` selects the flat model.
        self.phases = phases
        self._cum: Dict[int, List[float]] = {}
        self._period: Dict[int, float] = {}
        if phases is not None:
            k = interval
            for rank, seq in phases.items():
                cum = [0.0] * k
                acc = 0.0
                for j in range(1, k):
                    acc += seq[j]
                    cum[j] = acc
                self._cum[rank] = cum
                self._period[rank] = acc + seq[0]

    # ----------------------------------------------------------- projection
    def _phase_sum(self, rank: int, m: int) -> float:
        """Sum of the phase durations of deltas ``1..m`` (``S(m)``)."""
        k = self.interval
        return (m // k) * self._period[rank] + self._cum[rank][m % k]

    def project(self, rank: int, t0: float, b: int, m: int) -> float:
        """Projected clock of ``rank`` at iteration count ``m``, anchored at
        ``t0`` = its observed clock at count ``b``.

        Phase model: a checkpoint taken at boundary count ``c`` is observed
        inside the *next* delta (the one ending at ``c + 1``), but a rank
        resuming (or finishing) exactly at a boundary has already paid for
        that checkpoint -- so the boundary surcharge is added when ``m``
        lands on a boundary and removed when the anchor ``b`` does.
        """
        if self.phases is None:
            return t0 + (m - b) * self.dt[rank]
        if m == b:
            return t0
        t = t0 + (self._phase_sum(rank, m) - self._phase_sum(rank, b))
        k = self.interval
        extra = self.ckpt_extra[rank]
        if extra:
            if m % k == 0 and m > 0:
                t += extra
            if b % k == 0 and b > 0:
                t -= extra
        return t

    def iterations_at(self, rank: int, t0: float, b: int, t: float) -> int:
        """Largest count ``m >= b`` with ``project(rank, t0, b, m) <= t``.

        Central estimate (no conservative slack): used to size the DES guard
        window around a timed strike, where the caller adds its own margin.
        """
        rate = self.dt[rank]
        if t <= t0 or rate <= 0.0:
            return b
        # The mean-rate seed is within one checkpoint period of the exact
        # answer; the two walks below correct the phase-accumulation error.
        m = b + int((t - t0) / rate) + 1
        while m > b and self.project(rank, t0, b, m) > t:
            m -= 1
        while self.project(rank, t0, b, m + 1) <= t:
            m += 1
        return m


class Calibration(NamedTuple):
    """What a DES warm-up produces: the fitted model, the count the ranks
    parked at and each rank's clock there -- the value the campaign
    pre-warm shares with its replicas (:mod:`repro.simulator.calibration`)."""

    model: RateModel
    warmup: int
    park_times: Dict[int, float]


class HybridDirector:
    """Orchestrates one hybrid run (``SimulationConfig.execution="hybrid"``)."""

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        protocol = sim.protocol
        self._clustered = isinstance(protocol, ClusteredProtocolBase)
        self._interval: int = int(
            (protocol.checkpoint_interval or 0) if self._clustered else 0
        )
        #: protocol message hooks must run per message even in fast-forward.
        self._send_hook = bool(protocol.ff_send_hook)
        #: per-rank projected clocks, valid during a fast-forward epoch
        #: (published as ``sim.ff_clock`` for its duration).
        self._ff_clock: Dict[int, float] = {}
        self._ff_blocked: Set[int] = set()
        self._ff_runnable: Deque[int] = deque()
        self._iter_times: Dict[int, Dict[int, float]] = {}
        #: ``(column, key)`` that failed the most recent probe / that last kept
        #: a span committing every boundary (:meth:`_batch_intervals`), ``None``
        #: once one verified.  Not metrics: the records stay byte-identical.
        self.probe_mismatch: Optional[Tuple[str, Any]] = None
        self.line_mismatch: Optional[Tuple[str, Any]] = None
        self.stats: Dict[str, float] = {
            "enabled": 0,
            "fallback": 0,
            "calibration_cached": 0,
            "warmup_iterations": 0,
            "guard_iterations": 0,
            "epochs": 0,
            "ff_iterations": 0,
            "batched_iterations": 0,
            "line_commits": 0,
            "des_iterations": 0,
            "dt_mean_s": 0.0,
            "dt_spread": 0.0,
            "ckpt_extra_mean_s": 0.0,
        }

    # ------------------------------------------------------------------- run
    def calibrate(self) -> Optional[Calibration]:
        """The warm-up calibration of this scenario, or ``None``.

        Runs what :meth:`run` runs up to the fitted rate model -- the static
        checks and the DES warm-up, never the active cache -- and stops
        there: the simulation is left parked at the warm-up gate and is of
        no further use.  ``None`` means :meth:`run` would fall back to exact
        execution; when the reason is static no event has been processed.
        """
        self._warm_up(use_cache=False)
        return self.sim.hybrid_calibration

    def _warm_up(self, use_cache: bool) -> Union[
        Tuple[IterationGate, RateModel], Callable[[], "SimulationResult"]
    ]:
        """Start the run and take it to a calibrated rate model.

        Returns ``(gate, model)`` with every rank parked at ``gate`` when
        the run can go on in hybrid mode (a model fitted here, not read from
        the cache, is also exported as ``sim.hybrid_calibration``);
        otherwise the callable that completes the run the way exact mode
        would.
        """
        sim = self.sim
        total = int(sim.application.num_iterations)
        injector = sim.failure_injector
        if self._interval > 1:
            # The phase model needs two full checkpoint periods to verify
            # that the per-phase durations have settled, and slow-decaying
            # transients (pipeline fill, checkpoint-ripple workloads like
            # cg) need up to four.  The warm-up must run as ONE ungated
            # stretch -- parking ranks mid-warm-up and releasing them
            # imprints a period-aligned stall on the measured deltas that
            # the periodicity check cannot distinguish from real timing --
            # so its longest form is chosen up front: the largest affordable
            # rung given the iteration budget and any iteration-triggered
            # strike (the listener ends it at the first rung that verifies).
            k = self._interval
            i_f = injector.next_iteration_trigger() if injector else None
            warmup = 2 * k + 2
            for rung in (4 * k + 2, 3 * k + 2):
                if total >= rung + 2 and (i_f is None or i_f > rung):
                    warmup = rung
                    break
        else:
            warmup = 3
        sim.hybrid_stats = self.stats
        self.stats["warmup_iterations"] = warmup
        self.stats["guard_iterations"] = GUARD_ITERATIONS

        reason = self._static_fallback_reason(total, warmup)
        if reason is not None:
            return partial(self._fall_back, reason)

        cached = self._cached_calibration() if use_cache else None
        gate = IterationGate(0 if cached is not None else warmup)
        sim.iteration_gate = gate
        if cached is None:
            self._install_listener(gate)
        sim.protocol.on_simulation_start()
        sim._start_ranks()
        engine_reason = self._run_segment(
            before=injector.next_timed_failure_time() if injector else None
        )
        sim._iteration_listener = None
        if engine_reason == "empty" and not self._quiescent():
            return partial(sim._finish, "empty")
        if sim._done_count == sim.nprocs:
            sim.iteration_gate = None
            return partial(sim._finish, "stopped")
        if not self._quiescent():
            # The warm-up segment stopped because the next engine event is
            # the first timed strike and not every rank has parked yet.  No
            # failure has fired, so releasing the gate here hands the run to
            # exact mode with at most park-wait timing skew -- whereas
            # letting the strike land on a gated warm-up would perturb the
            # recovery dynamics themselves.
            return partial(
                self._fall_back, "the first timed strike lands inside the warm-up", gate
            )

        if cached is not None:
            return gate, self._apply_cached_calibration(cached, gate)
        # The count the ranks parked at: the listener may have stopped early.
        warmup = self.stats["warmup_iterations"] = gate.limit
        # The phase-indexed model under a periodic checkpoint schedule, the
        # flat median one otherwise (no checkpoints, or one per iteration).
        fit = self._calibrate_phases if self._interval > 1 else self._calibrate_flat
        model, calib_reason = fit(warmup)
        if model is None:
            return partial(self._fall_back, calib_reason, gate)
        # Export for the calibration cache (repro.simulator.calibration):
        # the campaign pre-warm stores this value for its replicas.
        sim.hybrid_calibration = Calibration(
            model, warmup, {rank: entry[1] for rank, entry in gate.parked.items()}
        )
        return gate, model

    def run(self) -> "SimulationResult":
        sim = self.sim
        total = int(sim.application.num_iterations)
        warm = self._warm_up(use_cache=True)
        if not isinstance(warm, tuple):
            return warm()
        gate, model = warm
        self.stats["enabled"] = 1
        self.stats["dt_mean_s"] = model.dt_mean
        self.stats["dt_spread"] = model.dt_spread
        if model.interval:
            self.stats["ckpt_extra_mean_s"] = (
                sum(model.ckpt_extra.values()) / len(model.ckpt_extra)
            )

        injector = sim.failure_injector
        while sim._done_count != sim.nprocs:
            parked = gate.parked
            parked_its = {entry[2] for entry in parked.values()}
            t_f = injector.next_timed_failure_time() if injector else None
            i_f = injector.next_iteration_trigger() if injector else None
            b_max = max(parked_its)

            # DES target for the next guard window: far enough to cover the
            # next strike (plus guard) but no further than necessary.
            g = total
            if i_f is not None:
                g = min(g, i_f + GUARD_ITERATIONS)
            if t_f is not None:
                # Project each rank's completed count at the strike.  DES is
                # gated a spread-proportional margin past the latest, so ranks
                # are still live at t_f even if the model runs a little slow;
                # it starts GUARD_ITERATIONS before the earliest (below).
                at_strike = [
                    model.iterations_at(rank, entry[1], entry[2], t_f)
                    for rank, entry in parked.items()
                ]
                est = max(at_strike)
                margin = 1 + int(math.ceil(model.dt_spread * (est - b_max)))
                g = min(g, est + GUARD_ITERATIONS + margin)
            g = max(g, b_max + 1)

            advanced = False
            if len(parked_its) == 1:
                b = b_max
                # Stop the analytic span one iteration short of the end: the
                # final iteration -- and with it the final checkpoint and the
                # protocol teardown -- runs under exact DES, so the run's
                # finish timing is measured, not modelled (the boundary
                # surcharge at the last checkpoint is an estimate; barrier
                # wait and write cost cannot be separated from warm-up data).
                e = total - 1
                if i_f is not None:
                    e = min(e, i_f - GUARD_ITERATIONS)
                if t_f is not None:
                    e = min(e, min(at_strike) - GUARD_ITERATIONS)
                if e > b:
                    self._fast_forward_epoch(b, e, model, gate)
                    advanced = True
                    gate.limit = max(g, e + 1)
            if not advanced:
                self._raise_gate(gate, g)
            engine_reason = self._run_segment()
            if engine_reason == "empty" and not self._quiescent():
                return sim._finish("empty")
            if sim.iteration_gate is None:
                break

        self.stats["des_iterations"] = max(
            0, sim.nprocs * total - self.stats["ff_iterations"]
        )
        return sim._finish("stopped")

    # ------------------------------------------------------------- fallbacks
    def _static_fallback_reason(self, total: int, warmup: int) -> Optional[str]:
        sim = self.sim
        app = sim.application
        protocol = sim.protocol
        if not getattr(app, "ff_compatible", False):
            return f"application {app.name!r} is not fast-forwardable"
        if not getattr(app, "send_deterministic", False):
            return f"application {app.name!r} is not send-deterministic"
        if sim.config.max_time is not None or sim.config.max_events is not None:
            return "bounded run (max_time/max_events)"
        if total < warmup + 2:
            return (
                f"too few iterations ({total}) for a {warmup}-iteration warm-up"
            )
        cls = type(protocol)
        if (cls.on_iteration_boundary is not ProtocolHooks.on_iteration_boundary
                and not self._clustered):
            return (
                f"protocol {protocol.name!r} has an iteration-boundary hook "
                "the fast path cannot reproduce"
            )
        if not self._send_hook and (
            cls.on_app_send is not ProtocolHooks.on_app_send
            or cls.on_message_arrival is not ProtocolHooks.on_message_arrival
        ):
            return (
                f"protocol {protocol.name!r} overrides message hooks without "
                "declaring ff_send_hook"
            )
        injector = sim.failure_injector
        if injector is not None:
            i_f = injector.next_iteration_trigger()
            if i_f is not None and i_f <= warmup:
                return (
                    f"an iteration-triggered strike (iteration {i_f}) lands "
                    "inside the warm-up"
                )
        return None

    def _fall_back(
        self, reason: str, gate: Optional[IterationGate] = None
    ) -> "SimulationResult":
        """Finish in exact mode and report why: the whole run (a static
        reason, nothing has started) or, given the warm-up's ``gate``, the
        rest of it with the parked ranks released."""
        sim = self.sim
        self.stats["fallback"] = 1
        self.stats["enabled"] = 0
        sim.stats.extra["hybrid_fallback_reason"] = reason
        if gate is not None:
            sim.iteration_gate = None
            gate.condition.fire(None)
        return sim._run_exact(start=gate is None)

    # ----------------------------------------------------------- calibration
    def _install_listener(self, gate: IterationGate) -> None:
        """Sample every warm-up boundary time, and end the warm-up at the
        first verified period pair: once every rank has completed rung
        ``2k+2`` (then ``3k+2``) and the phase fit over it passes, the rest
        of the stretch would measure the same durations again, so the gate
        limit drops to the first count no rank has started.  It is never
        raised: ranks running ahead (a pipeline's head) may be parked at it.
        """
        sim = self.sim
        times = self._iter_times = {rank: {} for rank in sim.ranks}
        engine = sim.engine
        k = self._interval
        arrived = {rung: 0 for rung in (2 * k + 2, 3 * k + 2) if k > 1 and rung < gate.limit}

        def listener(rank: int, iteration: int) -> None:
            times[rank][iteration] = engine.now
            if iteration in arrived:
                arrived[iteration] += 1
                if (arrived[iteration] == sim.nprocs
                        and self._calibrate_phases(iteration)[0] is not None):
                    arrived.clear()
                    gate.limit = min(gate.limit, 1 + max(
                        proc.completed_iterations for proc in sim.ranks.values()
                    ))

        sim._iteration_listener = listener

    # ----------------------------------------------------- calibration cache
    def _cached_calibration(self) -> Optional[Calibration]:
        """The active cache's entry under ``config.calibration_key`` (set by
        the scenario builder from :meth:`ScenarioSpec.calibration_key`, which
        covers every field that shapes the model), or ``None``.  A hit
        replaces the DES warm-up; the two-probe check still re-verifies the
        model before every batched advance."""
        cache = _calibration.active_cache()
        return None if cache is None else cache.get(self.sim.config.calibration_key)

    def _apply_cached_calibration(
        self, cached: Calibration, gate: IterationGate
    ) -> RateModel:
        """Anchor the parked-at-zero ranks so the cached model's projection
        reproduces the calibrating run's observed clocks.

        The phase model describes *steady-state* timing; iterations inside
        the calibrating run's warm-up carry a transient the projection does
        not see.  Rewriting each rank's park-time anchor by
        ``offset = T_park(W) - project(0, 0 -> W)`` makes the projection
        land exactly on the calibrated park time at count ``W``, folding the
        whole transient into the anchor instead of into per-iteration error.
        """
        model, warmup, park_times = cached
        for rank, entry in list(gate.parked.items()):
            anchor = park_times[rank] - model.project(rank, 0.0, 0, warmup)
            gate.parked[rank] = (entry[0], anchor, entry[2], entry[3])
        self.stats["warmup_iterations"] = 0
        self.stats["calibration_cached"] = 1
        return model

    #: relative tolerance for "two consecutive warm-up periods agree": the
    #: settled DES is deterministic, so steady-state residuals are float
    #: noise (~1e-14) while a live transient shows up at 1e-3 and above.
    _PHASE_TOL = 1e-9

    def _warmup_deltas(
        self, warmup: int, k: int, need: int
    ) -> Tuple[Optional[Dict[int, List[List[float]]]], str]:
        """Per rank, the durations of the warm-up iterations whose two
        boundary times were sampled, bucketed by phase ``i % k`` (``i`` being
        the completion count at the iteration's end) -- or ``None`` and why
        they cannot be fitted: a bucket short of ``need`` samples, or a
        failure that rolled the rank back mid-warm-up, whose re-execution
        overwrote earlier samples (a negative duration)."""
        sampled: Dict[int, List[List[float]]] = {}
        for rank, times in self._iter_times.items():
            by_phase: List[List[float]] = [[] for _ in range(k)]
            for i in range(2, warmup + 1):
                t1 = times.get(i)
                t0 = times.get(i - 1)
                if t1 is None or t0 is None:
                    continue
                if t1 < t0:
                    return None, "warm-up disturbed by a failure"
                by_phase[i % k].append(t1 - t0)
            if any(len(samples) < need for samples in by_phase):
                return None, f"rank {rank} produced no usable warm-up samples"
            sampled[rank] = by_phase
        return sampled, ""

    def _calibrate_phases(
        self, warmup: int
    ) -> Tuple[Optional[RateModel], str]:
        """Fit the phase-indexed model (see :class:`RateModel`).

        The delta ending at completion count ``i`` has phase ``i % k``; the
        model takes each phase's *last* observed duration and accepts it only
        when it matches the observation one period earlier to float
        precision, i.e. the warm-up transient has fully decayed.
        """
        k = self._interval
        sampled, reason = self._warmup_deltas(warmup, k, need=2)
        if sampled is None:
            return None, reason
        phases: Dict[int, List[float]] = {}
        dt: Dict[int, float] = {}
        extra: Dict[int, float] = {}
        residual = 0.0
        for rank, by_phase in sampled.items():
            for samples in by_phase:
                last, prev = samples[-1], samples[-2]
                ref = max(abs(last), abs(prev), 1e-300)
                residual = max(residual, abs(last - prev) / ref)
            seq = phases[rank] = [samples[-1] for samples in by_phase]
            dt[rank] = sum(seq) / k
            # The checkpoint taken at a boundary count ``i - 1`` lands in
            # the delta ending at ``i``, i.e. phase 1; its surcharge over
            # the median plain phase is reported as ``ckpt_extra``.
            others = sorted(seq[j] for j in range(k) if j != 1)
            extra[rank] = max(0.0, seq[1] - others[len(others) // 2])
        if residual > self._PHASE_TOL:
            return None, (
                f"iteration durations not yet periodic after {warmup} "
                f"warm-up iterations (period residual {residual:.2e})"
            )
        if min(dt.values()) <= 0.0:
            return None, "degenerate warm-up iteration durations"
        return RateModel(dt, extra, k, residual, phases), ""

    def _calibrate_flat(self, warmup: int) -> Tuple[Optional[RateModel], str]:
        """Fit the flat (single median duration) rate model.

        Only used without a periodic schedule or with a checkpoint at every
        boundary: in the latter case every delta carries one checkpoint, so
        its cost stays inside ``dt`` and ``ckpt_extra`` is zero either way.
        """
        sampled, reason = self._warmup_deltas(warmup, 1, need=1)
        if sampled is None:
            return None, reason
        dt = {rank: median(deltas) for rank, (deltas,) in sampled.items()}
        pooled = [delta for (deltas,) in sampled.values() for delta in deltas]
        med = median(pooled)
        if med <= 0.0:
            return None, "degenerate warm-up iteration durations"
        spread = (max(pooled) - min(pooled)) / med
        if spread > MAX_DT_SPREAD:
            return None, (
                f"iteration durations too irregular (spread {spread:.3f} > "
                f"{MAX_DT_SPREAD:g})"
            )
        return RateModel(dt, dict.fromkeys(dt, 0.0), 0, spread), ""

    # ------------------------------------------------------------- segments
    def _quiescent(self) -> bool:
        """True when the DES segment has converged: every live rank is parked
        at the gate and nothing but future timed failure strikes is queued.

        Checked before every engine event, so the expensive O(nprocs) scan is
        guarded by O(1) short-circuits that only pass once the queue has
        drained down to the injector's residual entries.
        """
        sim = self.sim
        injector = sim.failure_injector
        if injector is not None and injector.armed_fires:
            return False
        if sim._done_count == sim.nprocs:
            return True
        residual = injector.pending_timed_fires if injector is not None else 0
        if sim.engine.pending_events != residual:
            return False
        if sim.protocol.recovery_in_progress():
            return False
        gate = sim.iteration_gate
        if gate is None:
            return False
        parked = gate.parked
        for rank, proc in sim.ranks.items():
            if proc.state is RankState.DONE:
                continue
            entry = parked.get(rank)
            if (entry is None or entry[0] != proc.incarnation
                    or proc.state is not RankState.BLOCKED):
                return False
        return True

    def _run_segment(self, before: Optional[float] = None) -> str:
        """Run the engine to quiescence or, given ``before`` (the calibration
        segment passes the first timed strike), until the next event is due
        at or past it.

        A strike landing while the warm-up gate holds ranks parked would
        recover against a world exact mode never produces; stopping when the
        queue has drained down to the strike lets the caller abandon to
        exact mode with no failure fired yet.  (Iteration-triggered strikes
        at or below the warm-up boundary are a static fallback instead.)
        """
        engine = self.sim.engine
        if before is None:
            return engine.run(stop_predicate=self._quiescent)

        def stop() -> bool:
            head = engine._peek_time()
            return (head is not None and head >= before) or self._quiescent()

        return engine.run(stop_predicate=stop)

    def _raise_gate(self, gate: IterationGate, limit: int) -> None:
        """Release parked ranks into a DES segment bounded by ``limit``."""
        gate.limit = limit
        released = gate.condition
        gate.condition = Condition("iteration-gate")
        released.fire(None)

    def _drain_scheduled(self, bound: Optional[float]) -> None:
        """Execute engine events scheduled before ``bound`` (all of them when
        ``bound`` is None) while the clock is frozen mid-fast-forward.

        Fast-forwarded checkpoints fire protocol control messages through
        the ordinary engine scheduler; those events carry epoch-start
        timestamps and must run before the epoch's clock jump.  ``bound``
        keeps genuinely future events (the next timed strike) queued.
        """
        engine = self.sim.engine
        while True:
            head = engine._peek_time()
            if head is None or (bound is not None and head >= bound):
                return
            if not engine.step():
                return

    # ----------------------------------------------------------- fast path
    def _fast_forward_epoch(self, b: int, e: int, model: RateModel,
                            gate: IterationGate) -> None:
        """Advance every parked rank from iteration count ``b`` to ``e``
        without the event queue, then hand them back to the engine."""
        sim = self.sim
        anchors = {rank: entry[1] for rank, entry in gate.parked.items()}
        gate.parked.clear()
        gate.condition = Condition("iteration-gate")

        # The seam between the two interpreters: for the epoch, each rank's
        # communicator initiates sends through ff_send and reads the rank's
        # projected clock; everything else it does is shared with exact mode.
        comms = [sim.ranks[rank].comm for rank in anchors]
        sim.ff_clock = self._ff_clock
        for comm in comms:
            comm._isend = self.ff_send
        try:
            self._advance_span(b, e, model, anchors)
        finally:
            sim.ff_clock = None
            for comm in comms:
                comm._isend = sim.initiate_isend

        now = sim.engine.now
        resumes: Dict[int, float] = {}
        for rank in sorted(anchors):
            resume = model.project(rank, anchors[rank], b, e)
            if resume < now:
                resume = now
            resumes[rank] = resume
        target = min(resumes.values())
        # Play any control traffic still scheduled against the frozen
        # epoch-start clock (e.g. acks of the epoch's last checkpoint)
        # before jumping the clock past it.  Later events -- the next timed
        # failure strike -- stay queued.
        self._drain_scheduled(target)
        for rank in sorted(anchors):
            proc = sim.ranks[rank]
            proc.fast_forward_to(e, proc.app_state, resumes[rank])
        sim.engine.advance_to(target)
        self.stats["epochs"] += 1
        self.stats["ff_iterations"] += (e - b) * len(anchors)

    def _advance_span(self, b: int, e: int, model: RateModel,
                      anchors: Dict[int, float]) -> None:
        """Advance all ranks from count ``b`` to ``e``, batching whole
        checkpoint intervals analytically when it is safe to do so.

        The batched fast path never runs the application generators or the
        per-message protocol hooks: it extrapolates a *verified* state delta
        (consecutive per-message probe iterations must produce identical
        deltas, per iteration or per iteration pair -- see
        :meth:`_probe_deltas`) across each checkpoint interval, commits the
        recovery lines :meth:`_batch_intervals` builds, and drives per message
        what it cannot cover -- the way to each probe window, the windows
        themselves and the tail :meth:`_plan_batch` keeps real.

        One loop: plan a probe window from the current count, drive up to it,
        probe.  A probe that fails (the cold first iteration of a cached
        start, recovery residue, deltas that never agree) costs its window
        and nothing else: the next window is planned further on, the distance
        doubling with every failure, so an epoch of ``n`` iterations makes
        O(log n) probes before the per-message drive carries the rest.  The
        first probe that succeeds batches to the plan's end.
        """
        cur = origin = b
        gap = 1
        while (plan := self._plan_batch(origin, e)) is not None:
            probe_end, batch_end, probe_span = plan
            if probe_end - probe_span > cur:
                self._drive_iterations(b, probe_end - probe_span, model,
                                       anchors, start=cur)
            verified = self._probe_deltas(b, probe_end, probe_span, model,
                                          anchors)
            cur = probe_end
            if verified is not None:
                cur, stride, delta = verified
                if stride == 2 and (batch_end - cur) % 2:
                    # Pair extrapolation advances two iterations at a time;
                    # leave an odd final iteration to the per-message tail.
                    batch_end -= 1
                cur = self._batch_intervals(
                    cur, batch_end, model, anchors, b, delta, stride
                )
                break
            origin, gap = cur + gap, 2 * gap
        if e > cur:
            self._drive_iterations(b, e, model, anchors, start=cur)

    def _plan_batch(self, origin: int, e: int) -> Optional[Tuple[int, int, int]]:
        """``(probe_end, batch_end, probe_span)`` of a batched advance whose
        probe window starts at count ``origin`` or later, or ``None``.

        Batching needs: a bulk-capable workload, the slim trace path
        (per-event records require real messages), a checkpoint interval
        with a boundary-free probe window (at least 3 iterations) and room
        between the window and ``batch_end``.  Whether the protocol can
        extrapolate its epoch state is the probe's question, not the plan's:
        a ``None`` snapshot fails the probe.

        ``batch_end`` is ``e`` unless the protocol keeps a sender log
        (``ff_send_hook``) and a failure strike is still pending: a later
        rollback may replay the messages sent after the last checkpoint, so
        those must exist for real and the batch ends on the recovery line.
        A protocol without a log has no tail to keep -- its rollback discards
        everything after the last checkpoint.

        ``probe_span`` is the number of per-message probe iterations driven
        before extrapolating.  Wide enough intervals (and unclustered runs)
        get a four-iteration window, which additionally supports pair
        (stride-2) verification for protocol state whose per-iteration delta
        alternates with period two; tight intervals keep the classic
        two-iteration window.

        Longer periods cannot be batched at all: verifying stride ``s``
        needs ``2*s`` boundary-free probe deltas, so ``s`` is capped at
        ``(k - 2) // 2`` -- state whose delta period exceeds that (the
        max-based causal phase clock on a ring topology propagates
        cluster-edge phase bumps with a period set by the cluster diameter)
        fails every probe and correctly stays on the per-message
        fast-forward path.
        """
        sim = self.sim
        if sim.config.record_trace_events:
            return None
        if type(sim.application).fast_forward_states is Application.fast_forward_states:
            return None
        k = self._interval
        if k in (1, 2):
            return None
        batch_end = e
        injector = sim.failure_injector
        if self._send_hook and injector is not None and (
            injector.next_timed_failure_time() is not None
            or injector.next_iteration_trigger() is not None
        ):
            if not k:
                return None
            batch_end = (e // k) * k
        probe_span = 4 if (not k or (k % 2 == 0 and k >= 8)) else 2
        probe_end = origin + probe_span
        if k and probe_span == 4:
            # All four probed deltas must end strictly inside an interval
            # (residue not 0: no checkpoint boundary inside the window;
            # not 1: no delta carrying a checkpoint's cost), and probe_end
            # must be even so every boundary-aligned chunk after it has
            # even length for pair extrapolation (k is even here).
            while (probe_end % 2
                   or any((probe_end - j) % k in (0, 1) for j in range(4))):
                probe_end += 1
        elif k:
            while probe_end % k == 0 or (probe_end - 1) % k == 0:
                probe_end += 1
        if batch_end <= probe_end:
            return None
        return probe_end, batch_end, probe_span

    def _probe_deltas(self, b: int, probe_end: int, probe_span: int,
                      model: RateModel, anchors: Dict[int, float]
                      ) -> Optional[Tuple[int, int, EpochState]]:
        """Drive probe iterations per message and extract a verified
        ``(cur, stride, delta)``, or ``None``.

        The probe is adaptive, a ladder of (span, stride) rungs over one
        epoch state per driven iteration.  Two single-iteration deltas that
        agree settle a stride-1 delta after only two driven iterations
        (``cur`` is then two short of ``probe_end`` and batching starts
        early).  Only when they disagree -- and the window is the
        four-iteration kind -- are the remaining probe iterations driven:
        four agreeing singles still yield stride 1, and deltas that
        alternate with period two are caught by comparing the two
        consecutive *pair* deltas instead, yielding a stride-2 delta
        extrapolated two iterations at a time by :meth:`_batch_intervals`.

        On failure every rank is left at count ``probe_end`` and
        :attr:`probe_mismatch` names the leaf that broke the last rung: a
        failed probe costs its snapshots (a millisecond or so) on top of
        per-message work the epoch needed anyway, and :meth:`_advance_span`
        plans the next window from there.  A protocol that does not batch at
        all (``None`` snapshots) fails here, too.
        """
        start = probe_end - probe_span
        states = [self._epoch_state()]
        for span, stride in ((2, 1), (4, 1), (4, 2)):
            if span > probe_span:
                break
            while len(states) <= span:
                upto = start + len(states)
                self._drive_iterations(b, upto, model, anchors, start=upto - 1)
                states.append(self._epoch_state())
            delta, self.probe_mismatch = self._verified_delta(
                states[:span + 1:stride], anchors
            )
            if delta is not None:
                return start + span, stride, delta
        return None

    def _verified_delta(
        self, states: Sequence[Optional[EpochState]], anchors: Dict[int, float]
    ) -> Tuple[Optional[EpochState], Optional[Tuple[str, Any]]]:
        """``(delta, None)`` when consecutive ``states`` all advance by one
        and the same delta (their last), else ``(None, (column, key))``
        naming the first leaf that says otherwise."""
        for rank in anchors:
            # In-transit application messages (a workload running ahead
            # across iteration boundaries) would be invisible to the
            # extrapolation.
            if self.sim.ranks[rank].unexpected:
                return None, ("in_transit", rank)
        deltas: List[EpochState] = []
        for old, new in zip(states, states[1:]):
            if old is None or new is None:
                return None, ("ff_epoch_snapshot", None)
            deltas.append(linear_delta(old, new))
        for key, by in deltas[-1]["steady"].items():
            # A checkpoint or a rollback voids the window: probe iterations
            # must be boundary- and failure-free.  (One that ran before the
            # last delta fails the comparison below.)
            if by:
                return None, ("steady", key)
        for delta in deltas[:-1]:
            mismatch = delta_mismatch(delta, deltas[-1])
            if mismatch is not None:
                return None, mismatch
        return deltas[-1], None

    def _epoch_state(self, line: bool = False) -> Optional[EpochState]:
        """The protocol's epoch state plus the director's own columns, or
        ``None`` when the protocol does not batch.  ``steady`` is the one
        column that is not extrapolated: it must not move between two states.
        In a probe window that is the checkpoint count; between two recovery
        lines (``line``) commits are the stride, and what must not move is what
        they leave behind: the event queue (acks deferred past a strike) and
        the live plus phantom sender log."""
        sim = self.sim
        state = sim.protocol.ff_epoch_snapshot()
        if state is None:
            return None
        procs = sim.ranks.items()
        state["rstats.sends"] = {rank: proc.rstats.sends for rank, proc in procs}
        state["rstats.receives"] = {rank: proc.rstats.receives for rank, proc in procs}
        state["rstats.bytes_sent"] = {rank: proc.rstats.bytes_sent for rank, proc in procs}
        state["rstats.bytes_received"] = {
            rank: proc.rstats.bytes_received for rank, proc in procs
        }
        state["rstats.compute_time"] = {rank: proc.rstats.compute_time for rank, proc in procs}
        state["rstats.checkpoints"] = {rank: proc.rstats.checkpoints for rank, proc in procs}
        state["sends_initiated"] = {rank: proc.sends_initiated for rank, proc in procs}
        state["deliveries"] = {rank: proc.deliveries for rank, proc in procs}
        state["channel"] = {  # keyed (channel, 0: messages / 1: bytes)
            (ch, i): v[i] for ch, v in sim.trace.channel_volumes.items() for i in (0, 1)
        }
        state["delivered"] = dict(sim.trace.delivered_counts)
        state["app"] = {"messages": sim.stats.app_messages, "bytes": sim.stats.app_bytes}
        storage, control = sim.storage, sim.control
        steady = {"ranks_rolled_back": sim.stats.ranks_rolled_back}
        if line:
            steady["pending_events"] = sim.engine.pending_events
            for rank, held in sim.protocol.memory_usage_bytes().items():
                steady[f"log_memory[{rank}]"] = held
        else:
            steady["checkpoints_taken"] = storage.writes
        state["steady"] = steady
        # What a coordinated checkpoint moves (nothing, in a probe window).
        state["commits"] = {"writes": storage.writes, "bytes": storage.bytes_written,
                            "control_messages": control.messages_sent,
                            "control_bytes": control.bytes_sent}
        return state

    def _apply_epoch_delta(self, delta: EpochState, n: int) -> None:
        """Advance the director's own columns by ``n`` times ``delta``."""
        sim = self.sim
        for rank, proc in sim.ranks.items():
            rstats = proc.rstats
            rstats.sends += n * delta["rstats.sends"][rank]
            rstats.receives += n * delta["rstats.receives"][rank]
            rstats.bytes_sent += n * delta["rstats.bytes_sent"][rank]
            rstats.bytes_received += n * delta["rstats.bytes_received"][rank]
            rstats.compute_time += n * delta["rstats.compute_time"][rank]
            rstats.checkpoints += n * delta["rstats.checkpoints"][rank]
            proc.sends_initiated += n * delta["sends_initiated"][rank]
            proc.deliveries += n * delta["deliveries"][rank]
        for (ch, i), by in delta["channel"].items():
            sim.trace.channel_volumes[ch][i] += n * by
        counts = sim.trace.delivered_counts
        for rank, by in delta["delivered"].items():
            if by:
                counts[rank] = counts.get(rank, 0) + n * by
        sim.stats.app_messages += n * delta["app"]["messages"]
        sim.stats.app_bytes += n * delta["app"]["bytes"]
        commits = delta["commits"]
        sim.storage.writes += n * commits["writes"]
        sim.storage.bytes_written += n * commits["bytes"]
        sim.control.messages_sent += n * commits["control_messages"]
        sim.control.bytes_sent += n * commits["control_bytes"]

    def _batch_intervals(self, cur: int, batch_end: int, model: RateModel,
                         anchors: Dict[int, float], b0: int,
                         delta: EpochState, stride: int = 1) -> int:
        """Extrapolate the verified delta interval by interval up to
        ``batch_end``, taking coordinated checkpoints for real.

        ``stride`` is the iteration granularity the verified delta covers
        (1 for the classic per-iteration probe, 2 for a pair delta); every
        chunk is extrapolated in whole strides, and a chunk that is not a
        stride multiple ends the batch early -- the per-message tail picks
        up from there.

        The ladder's last rung has a whole interval for its stride: an epoch
        state is taken on every recovery line committed here, and once two
        consecutive interval deltas agree, every whole interval left but the
        last is advanced in one step.  The checkpoints it passes are counted,
        not built (each is superseded by the next; a rollback restores the
        last only), and the last is committed for real: a span ends on a
        materialised line.  A rung that fails -- the first interval reclaims
        the probe window's log, acks deferred past a strike -- costs one more.
        """
        sim = self.sim
        protocol, app, k = sim.protocol, sim.application, self._interval
        injector = sim.failure_injector
        t_strike = injector.next_timed_failure_time() if injector else None
        states = {rank: sim.ranks[rank].app_state for rank in anchors}
        clusters = sorted({protocol.cluster_of(r) for r in anchors}) if k else []
        last_line = (batch_end // k) * k if k else 0
        lines: List[Optional[EpochState]] = []

        def time_at(rank: int, it: int) -> float:
            return model.project(rank, anchors[rank], b0, it)

        def advance(n: int, by: EpochState, units: int) -> int:  # -> cur + n
            if not app.fast_forward_states(states, cur, n):
                raise SimulationError(
                    f"workload {app.name!r} refused a batched state advance "
                    f"({cur}..{cur + n}) although it implements fast_forward_states"
                )
            protocol.ff_epoch_apply(by, units)
            self._apply_epoch_delta(by, units)
            self.stats["batched_iterations"] += n * len(anchors)
            for rank in anchors:
                sim.ranks[rank].completed_iterations = cur + n
            return cur + n

        while cur < batch_end:
            nxt = min(batch_end, ((cur // k) + 1) * k) if k else batch_end
            units, rem = divmod(nxt - cur, stride)
            if rem:
                return cur
            cur = advance(nxt - cur, delta, units)
            if k and cur % k == 0:
                sim.control.begin_buffering()
                try:
                    for cluster in clusters:
                        protocol.fast_forward_cluster_checkpoint(cluster, cur, time_at)
                finally:
                    sim.control.flush(t_strike)
                self._drain_scheduled(t_strike)
                self.stats["line_commits"] += len(anchors)
                skip = (last_line - cur) // k - 1
                if skip + len(lines) >= 3:  # three lines, then room to jump
                    lines.append(self._epoch_state(line=True))
                    if len(lines) == 3:
                        by, self.line_mismatch = self._verified_delta(lines, anchors)
                        del lines[0]
                        if by is not None:
                            cur = advance(skip * k, by, skip)
        return cur

    def _drive_iterations(self, b: int, e: int, model: RateModel,
                          anchors: Dict[int, float],
                          start: Optional[int] = None) -> None:
        """Run iterations ``b..e-1`` of every rank synchronously.

        This is the queue-free interpreter of the op vocabulary
        (:mod:`repro.simulator.ops`; the event-driven one is
        :meth:`RankProcess._handle_op`).  Each rank free-runs through its
        iterations (a finished iteration immediately starts the next one),
        blocking only when a receive has no matching message yet; a sender's
        delivery wakes the blocked receiver.  Rank order is deterministic
        (ascending rank, FIFO wake order), so two runs of the same epoch are
        identical.
        """
        sim = self.sim
        ranks = sim.ranks
        protocol = sim.protocol
        interval = self._interval if self._clustered else 0
        injector = sim.failure_injector
        t_strike = injector.next_timed_failure_time() if injector else None
        clock = self._ff_clock
        clock.clear()
        blocked = self._ff_blocked
        blocked.clear()
        runnable = self._ff_runnable
        runnable.clear()
        gens: Dict[int, Generator[Any, Any, Any]] = {}
        counts: Dict[int, int] = {}
        pending: Set[int] = set()
        #: rank -> (op, its requests, scan position) of a message-blocked
        #: rank: every request before the position is complete, so a woken
        #: rank resumes the scan where it stopped.
        waits: Dict[int, Tuple[Operation, Sequence[Request], int]] = {}
        #: (cluster_id, iteration) -> ranks waiting at the coordinated
        #: checkpoint barrier.  The exact-mode checkpoint is a cluster
        #: barrier; without it a free-running rank could send intra-cluster
        #: messages past a peer's checkpoint boundary, which the protocol's
        #: channel-quiescence invariant rightly rejects.
        barriers: Dict[Tuple[int, int], Set[int]] = {}
        #: iteration -> clusters already checkpointed at that boundary; the
        #: control traffic a boundary fires (log-GC acks) is drained only
        #: once the *last* cluster passed it, matching exact mode where all
        #: clusters snapshot before any ack lands.
        boundary_done: Dict[int, int] = {}
        n_clusters = len({protocol.cluster_of(r) for r in anchors}) if interval else 0
        #: first iteration count to drive; ``anchors``/``b`` stay the clock
        #: projection base even when a batched prefix advanced past them.
        first = b if start is None else start

        def time_at(rank: int, it: int) -> float:
            return model.project(rank, anchors[rank], b, it)

        for rank in sorted(anchors):
            counts[rank] = first
            clock[rank] = anchors[rank] if first == b else time_at(rank, first)
            gens[rank] = self._start_iteration(rank, first)
            runnable.append(rank)
            pending.add(rank)

        def _resume(rank: int, it: int) -> bool:
            """Move a rank past completion count ``it``; True to keep stepping."""
            if it >= e:
                pending.discard(rank)
                return False
            clock[rank] = time_at(rank, it)
            gens[rank] = self._start_iteration(rank, it)
            return True

        def _rejected(rank: int, op: Any, wildcard: bool = False) -> SimulationError:
            what = describe(op)
            if wildcard:
                what = f"an ANY_SOURCE receive ({what})"
            return SimulationError(
                f"rank {rank}: {what} cannot be fast-forwarded; declare the "
                "workload ff_compatible = False"
            )

        while pending:
            if not runnable:
                waiting = ", ".join(
                    f"rank {r} in iteration {counts[r]} blocked on "
                    + (describe(waits[r][0]) if r in waits
                       else "its cluster's checkpoint barrier")
                    for r in sorted(pending)
                )
                raise SimulationError(
                    f"fast-forward deadlock: {waiting}; no peer will send the "
                    "awaited messages before the epoch boundary"
                )
            rank = runnable.popleft()
            if rank not in pending:
                continue
            proc = ranks[rank]
            gen = gens[rank]
            wait = waits.pop(rank, None)
            op: Any
            requests: Sequence[Request]
            value: Any = None
            while True:
                if wait is not None:
                    op, requests, pos = wait
                    wait = None
                else:
                    try:
                        op = gen.send(value)
                    except StopIteration:
                        value = None
                        it = counts[rank] + 1
                        counts[rank] = it
                        proc.completed_iterations = it
                        if interval and it % interval == 0:
                            cluster = protocol.cluster_of(rank)
                            key = (cluster, it)
                            group = barriers.setdefault(key, set())
                            group.add(rank)
                            if len(group) < len(protocol.members(cluster)):
                                # Parked at the coordinated-checkpoint barrier
                                # (neither runnable nor message-blocked).
                                break
                            del barriers[key]
                            protocol.fast_forward_cluster_checkpoint(cluster, it, time_at)
                            self.stats["line_commits"] += len(group)
                            # Execute the boundary's control traffic (log-GC
                            # acks) before anyone reaches the *next* boundary:
                            # exact mode prunes sender logs between checkpoints,
                            # and checkpoint sizes include the live log, so
                            # deferring the acks to the epoch edge would inflate
                            # every later checkpoint of the epoch.
                            boundary_done[it] = boundary_done.get(it, 0) + 1
                            if boundary_done[it] == n_clusters:
                                del boundary_done[it]
                                self._drain_scheduled(t_strike)
                            for member in sorted(group):
                                if member != rank and _resume(member, it):
                                    runnable.append(member)
                        if _resume(rank, it):
                            gen = gens[rank]
                            continue
                        break
                    kind = op.__class__
                    if kind is ComputeOp:
                        # The time itself is covered by the calibrated
                        # iteration rate; only the statistics counter must
                        # stay in sync with exact mode.
                        proc.rstats.compute_time += op.seconds
                        value = None
                        continue
                    if kind is SendOp:
                        self.ff_send(proc, op.dest, op.payload, op.tag, op.size_bytes)
                        value = None
                        continue
                    # Everything else must be a wait the fast path can decide
                    # without event timing: which request of a waitany
                    # completes first, which sender an ANY_SOURCE receive
                    # matches and when a condition fires are questions only
                    # the event queue answers.
                    if kind is WaitOp:
                        if op.mode == "any":
                            raise _rejected(rank, op)
                        requests = op.requests
                        for request in requests:
                            if (request.__class__ is RecvRequest
                                    and request.source == ANY_SOURCE):
                                raise _rejected(rank, op, wildcard=True)
                    elif kind is RecvOp:
                        if op.source == ANY_SOURCE:
                            raise _rejected(rank, op, wildcard=True)
                        requests = (proc.post_receive(op.source, op.tag),)
                    else:
                        raise _rejected(rank, op)
                    pos = 0
                count = len(requests)
                while pos < count and requests[pos].state is _COMPLETE:
                    pos += 1
                if pos < count:
                    waits[rank] = (op, requests, pos)
                    blocked.add(rank)
                    break
                # Same delivery order as the exact path: only after *all*
                # requests completed, in request order (a sendrecv delivers
                # the send value -- a no-op -- then the received message),
                # and before the coroutine resumes.
                values = [request.value for request in requests]
                for delivered in values:
                    proc._deliver_to_app(delivered)
                value = (
                    values if op.__class__ is WaitOp and op.mode == "all"
                    else values[0]
                )

    def _start_iteration(self, rank: int, it: int) -> Generator[Any, Any, Any]:
        proc = self.sim.ranks[rank]
        comm = proc.comm
        comm._collective_seq = 0
        proc.current_iteration = it
        gen: Generator[Any, Any, Any] = self.sim.application.iteration(
            comm, rank, proc.app_state, it
        )
        return gen

    def _wake(self, rank: int) -> None:
        if rank in self._ff_blocked:
            self._ff_blocked.discard(rank)
            self._ff_runnable.append(rank)

    def ff_send(self, proc: "RankProcess", dest: int, payload: Any, tag: int,
                size_bytes: int) -> SendRequest:
        """Synchronous message transmission during a fast-forwarded epoch.

        Mirrors :meth:`Simulation._attempt_send` byte for byte on the
        accounting side (protocol hooks when the protocol declares them
        stateful, trace records, per-rank and global counters) but delivers
        straight into the destination's matching machinery instead of the
        transport, and completes the send request immediately.
        """
        sim = self.sim
        message = Message(proc.rank, dest, tag, size_bytes, payload)
        now = self._ff_clock[proc.rank]
        suppressed = False
        if self._send_hook:
            decision = sim.protocol.on_app_send(proc.rank, message)
            if decision.action is not SendAction.SEND:
                raise SimulationError(
                    f"protocol {sim.protocol.name!r} tried to "
                    f"{decision.action.value} a send during fast-forward; "
                    "failure-free epochs must be SEND-only"
                )
            if not sim.protocol.on_message_arrival(dest, message):
                suppressed = True
        proc.sends_initiated += 1
        sim.trace.record_send(message, now)
        rstats = proc.rstats
        rstats.sends += 1
        rstats.bytes_sent += message.size_bytes
        sim.stats.app_messages += 1
        sim.stats.app_bytes += message.size_bytes
        if suppressed:
            sim.stats.extra["suppressed_duplicates"] = (
                sim.stats.extra.get("suppressed_duplicates", 0) + 1
            )
        else:
            sim.ranks[dest].deliver_message(message)
            self._wake(dest)
        request = SendRequest(proc.rank, message)
        request._complete(None, now)
        return request
