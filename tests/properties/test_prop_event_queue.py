"""Property tests (hypothesis) for the two-tier event queue.

The engine's contract is simple to state -- events execute in ``(time,
seq)`` order, whatever mixture of drain-list consumption, overflow-heap
merges, generation swaps, cancellations and lazy compactions produced the
queue state -- but the implementation is aggressively specialised, so the
properties drive it with randomized *programs*: events whose callbacks
schedule further events (including zero-delay ties that join the group
being drained) and cancel pending ones.  A naive single-list reference
executes the same program; the logs must match exactly.

A *cut* stops :meth:`~SimulationEngine.run` with a stop predicate ("stop
once k events have executed"), up to three times at increasing k, and a
last ``run()`` finishes the program: the stop reason, the clock and the
live remainder at each cut must match the reference's, and the concatenated
log must equal the uncut one.  A cut often lands between two members of an
equal-time group, or between a drain entry and a heap entry of one
timestamp, so resuming must pick up the group's rest in order.  The
``"peek"`` cut instead runs once under a stop predicate that peeks at the
queue head before every event and never stops.  Whatever the input, a
finished run leaves no cancelled entry counted.
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


#: ``None``, ``("stop_after", ks)`` -- one run per k in the ascending
#: ``ks``, each stopping once k events have executed, then a last run to
#: the end -- or ``("peek", None)``: one run whose stop predicate peeks.
cuts = st.one_of(
    st.none(),
    st.just(("peek", None)),
    st.tuples(
        st.just("stop_after"),
        st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=3).map(
            lambda ks: tuple(sorted(ks))
        ),
    ),
)


def _run_engine(program, engine=None, cut=None):
    """Execute the program on a real engine.

    Returns ``(log, at_cuts)``: the execution log and, given a
    ``stop_after`` cut, one ``(reason, now, pending_events)`` right after
    each stopped run (``None`` without one).
    """
    n_specs, roots, delays, actions = program
    engine = engine if engine is not None else SimulationEngine()
    entries = {}
    log = []

    def execute(spec):
        log.append(spec)
        for action in actions[spec]:
            if action[0] == "sched":
                _, j, delay = action
                if j not in entries:
                    entries[j] = engine.schedule(delay, execute, j)
            else:
                entry = entries.get(action[1])
                if entry is not None:
                    engine.cancel(entry)
    for spec in roots:
        entries[spec] = engine.schedule(delays[spec], execute, spec)

    def peek_and_go_on():
        engine._peek_time()
        return False

    at_cuts = None
    if cut is not None and cut[0] == "stop_after":
        at_cuts = []
        for k in cut[1]:
            reason = engine.run(stop_predicate=lambda: len(log) >= k)
            at_cuts.append((reason, engine.now, engine.pending_events))
    outcome = engine.run(stop_predicate=peek_and_go_on if cut == ("peek", None) else None)
    assert outcome == "empty"
    assert engine.pending_events == 0
    assert engine._cancelled == 0
    assert engine.events_processed == len(log)
    return log, at_cuts


def _run_reference(program, cut=None):
    """Same program on a naive sorted-list queue: the ground truth order.

    Returns ``(log, at_cuts)`` like :func:`_run_engine`.
    """
    n_specs, roots, delays, actions = program
    stops = list(cut[1]) if cut is not None and cut[0] == "stop_after" else None
    now = 0.0
    seq = 0
    pending = {}  # spec -> [time, seq, alive]
    log = []
    at_cuts = None if stops is None else []
    for spec in roots:
        seq += 1
        pending[spec] = [delays[spec], seq, True]
    while True:
        live = [(e[0], e[1], s) for s, e in pending.items() if e[2]]
        # A run that stops once k events have executed stops here when k
        # are done (the predicate runs first; a later k may stop at the same
        # point), or comes back empty when the queue ran dry before.
        while stops and (len(log) >= stops[0] or not live):
            reason = "stopped" if len(log) >= stops.pop(0) else "empty"
            at_cuts.append((reason, now, len(live)))
        if not live:
            return log, at_cuts
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


@given(queue_programs(), cuts)
@settings(max_examples=300, deadline=None)
def test_execution_order_matches_naive_reference(program, cut):
    assert _run_engine(program, cut=cut) == _run_reference(program, cut)


@given(queue_programs(), cuts)
@settings(max_examples=150, deadline=None)
def test_aggressive_compaction_does_not_reorder(program, cut):
    assert _run_engine(program, engine=_CompactingEngine(), cut=cut) == _run_reference(
        program, cut
    )


@given(queue_programs())
@settings(max_examples=100, deadline=None)
def test_equal_time_groups_preserve_schedule_order(program):
    # Within one timestamp the execution order is exactly the scheduling
    # order (FIFO), even when a group spans the drain list and the overflow
    # heap or is joined mid-drain by zero-delay events.
    n_specs, roots, delays, actions = program
    engine = SimulationEngine()
    entries = {}
    log = []
    schedule_order = {}

    def execute(spec):
        log.append((engine.now, schedule_order[spec], spec))
        for action in actions[spec]:
            if action[0] == "sched":
                _, j, delay = action
                if j not in entries:
                    schedule_order[j] = len(schedule_order)
                    entries[j] = engine.schedule(delay, execute, j)
            else:
                entry = entries.get(action[1])
                if entry is not None:
                    engine.cancel(entry)
    for spec in roots:
        schedule_order[spec] = len(schedule_order)
        entries[spec] = engine.schedule(delays[spec], execute, spec)
    engine.run()
    for earlier, later in zip(log, log[1:]):
        assert earlier[0] <= later[0]
        if earlier[0] == later[0]:
            assert earlier[1] < later[1]
