"""Property tests (hypothesis) for the two-tier event queue.

The engine's contract is simple to state -- events execute in ``(time,
seq)`` order, whatever mixture of drain-list consumption, overflow-heap
merges, generation swaps, cancellations and lazy compactions produced the
queue state -- but the implementation is aggressively specialised, so the
properties drive it with randomized *programs*: events whose callbacks
schedule further events (including zero-delay ties that join the group
being drained) and cancel pending ones.  A naive single-list reference
executes the same program; the logs must match exactly.

The FIFO schedule-policy path (``set_schedule_policy`` with a chooser that
always picks index 0) must reproduce the default order bit for bit -- that
equivalence is what lets the schedule explorer trust its baseline run.

A *cut* stops the first :meth:`~SimulationEngine.run` with a stop predicate
("stop after k events") and a second ``run()`` finishes the program: the
stop reason, the clock and the live remainder at the cut must match the
reference's, and the concatenated log must equal the uncut one.  The
``"peek"`` cut instead runs once under a stop predicate that peeks at the
queue head before every event and never stops.  Both properties run with
and without the FIFO chooser, so a cut lands in the hot loop or inside an
equal-time group of the grouped loop (which requeues the group's rest).
Whatever the input, a finished run leaves no cancelled entry counted.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.engine import SimulationEngine

#: Delay pool: few distinct values so equal-time groups are common; 0.0
#: makes callback-scheduled events tie with the group currently draining.
_DELAYS = (0.0, 0.25, 0.5, 1.0)


class _CompactingEngine(SimulationEngine):
    """Engine variant that compacts on (nearly) every cancellation."""

    COMPACT_MIN_CANCELLED = 1


@st.composite
def queue_programs(draw):
    """A program over event specs ``0..n-1``.

    Returns ``(n_specs, roots, delays, actions)``: specs in ``roots`` are
    scheduled up front; executing spec ``i`` performs ``actions[i]``, each
    either ``("sched", j, delay)`` (schedule spec ``j`` unless already
    scheduled) or ``("cancel", j)`` (cancel ``j`` if still pending).  Only
    ``j > i`` targets are generated for scheduling, so every program
    terminates; each spec runs at most once.
    """
    n_specs = draw(st.integers(min_value=1, max_value=12))
    roots = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_specs - 1),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    delays = [draw(st.sampled_from(_DELAYS)) for _ in range(n_specs)]
    actions = []
    for i in range(n_specs):
        spec_actions = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            if i + 1 < n_specs and draw(st.booleans()):
                j = draw(st.integers(min_value=i + 1, max_value=n_specs - 1))
                spec_actions.append(("sched", j, draw(st.sampled_from(_DELAYS))))
            else:
                j = draw(st.integers(min_value=0, max_value=n_specs - 1))
                spec_actions.append(("cancel", j))
        actions.append(spec_actions)
    return n_specs, roots, delays, actions


#: ``None``, ``("stop_after", k)`` -- the first of two runs stops once k
#: events have executed -- or ``("peek", None)``: one run whose stop
#: predicate peeks.
cuts = st.one_of(
    st.none(),
    st.just(("peek", None)),
    st.tuples(st.just("stop_after"), st.integers(min_value=0, max_value=12)),
)

#: the FIFO chooser (always the first member of an equal-time group).
_FIFO = lambda time, group: 0  # noqa: E731


def _run_engine(program, engine=None, chooser=None, cut=None):
    """Execute the program on a real engine.

    Returns ``(log, at_cut)``: the execution log and, given a
    ``stop_after`` cut, ``(reason, now, pending_events)`` right after the
    first run (``None`` without one).
    """
    n_specs, roots, delays, actions = program
    engine = engine if engine is not None else SimulationEngine()
    if chooser is not None:
        engine.set_schedule_policy(chooser)
    handles = {}
    log = []

    def execute(spec):
        log.append(spec)
        for action in actions[spec]:
            if action[0] == "sched":
                _, j, delay = action
                if j not in handles:
                    handles[j] = engine.schedule(delay, execute, j)
            else:
                handle = handles.get(action[1])
                if handle is not None:
                    handle.cancel()
    for spec in roots:
        handles[spec] = engine.schedule(delays[spec], execute, spec)

    def peek_and_go_on():
        engine._peek_time()
        return False

    at_cut = None
    if cut is not None and cut[0] == "stop_after":
        reason = engine.run(stop_predicate=lambda: len(log) >= cut[1])
        at_cut = (reason, engine.now, engine.pending_events)
    outcome = engine.run(stop_predicate=peek_and_go_on if cut == ("peek", None) else None)
    assert outcome == "empty"
    assert engine.pending_events == 0
    assert engine._cancelled == 0
    assert engine.events_processed == len(log)
    return log, at_cut


def _run_reference(program, cut=None):
    """Same program on a naive sorted-list queue: the ground truth order.

    Returns ``(log, at_cut)`` like :func:`_run_engine`.
    """
    n_specs, roots, delays, actions = program
    stop_after = cut[1] if cut is not None and cut[0] == "stop_after" else None
    now = 0.0
    seq = 0
    pending = {}  # spec -> [time, seq, alive]
    log = []
    at_cut = None
    for spec in roots:
        seq += 1
        pending[spec] = [delays[spec], seq, True]
    while True:
        live = [(e[0], e[1], s) for s, e in pending.items() if e[2]]
        if at_cut is None and stop_after is not None:
            if len(log) == stop_after:
                at_cut = ("stopped", now, len(live))
            elif not live:
                at_cut = ("empty", now, 0)
        if not live:
            return log, at_cut
        _, _, spec = min(live)
        entry = pending[spec]
        now = entry[0]
        entry[2] = False
        log.append(spec)
        for action in actions[spec]:
            if action[0] == "sched":
                _, j, delay = action
                if j not in pending:
                    seq += 1
                    pending[j] = [now + delay, seq, True]
            else:
                target = pending.get(action[1])
                if target is not None:
                    target[2] = False


@given(queue_programs(), cuts, st.sampled_from((None, _FIFO)))
@settings(max_examples=200, deadline=None)
def test_execution_order_matches_naive_reference(program, cut, chooser):
    assert _run_engine(program, chooser=chooser, cut=cut) == _run_reference(program, cut)


@given(queue_programs(), cuts, st.sampled_from((None, _FIFO)))
@settings(max_examples=100, deadline=None)
def test_aggressive_compaction_does_not_reorder(program, cut, chooser):
    assert _run_engine(
        program, engine=_CompactingEngine(), chooser=chooser, cut=cut
    ) == _run_reference(program, cut)


@given(queue_programs())
@settings(max_examples=100, deadline=None)
def test_fifo_policy_reproduces_default_order(program):
    # The policy loop (group pop + same-time absorption across both tiers)
    # with the always-first chooser is the explorer's baseline: it must be
    # indistinguishable from the policy-free hot path.
    assert _run_engine(program, chooser=_FIFO) == _run_reference(program)


@given(queue_programs())
@settings(max_examples=100, deadline=None)
def test_equal_time_groups_preserve_schedule_order(program):
    # Within one timestamp the execution order is exactly the scheduling
    # order (FIFO), even when a group spans the drain list and the overflow
    # heap or is joined mid-drain by zero-delay events.
    n_specs, roots, delays, actions = program
    engine = SimulationEngine()
    handles = {}
    log = []
    schedule_order = {}

    def execute(spec):
        log.append((engine.now, schedule_order[spec], spec))
        for action in actions[spec]:
            if action[0] == "sched":
                _, j, delay = action
                if j not in handles:
                    schedule_order[j] = len(schedule_order)
                    handles[j] = engine.schedule(delay, execute, j)
            else:
                handle = handles.get(action[1])
                if handle is not None:
                    handle.cancel()
    for spec in roots:
        schedule_order[spec] = len(schedule_order)
        handles[spec] = engine.schedule(delays[spec], execute, spec)
    engine.run()
    for earlier, later in zip(log, log[1:]):
        assert earlier[0] <= later[0]
        if earlier[0] == later[0]:
            assert earlier[1] < later[1]
