"""Property test (hypothesis) for ``wait`` / ``waitall`` / ``waitany``.

:meth:`RankProcess._handle_wait` counts pending requests instead of
re-scanning the list on every completion.  The property drives it with
random request lists -- pre-completed, cancelled, duplicate and
late-completing send and receive requests, completed in random order, with
an optional rollback in between -- and compares against a reference model
that *does* re-scan: the wait must resume exactly once, at the completion
that satisfies it, with the values in request order and one application
delivery per message; a new incarnation drops the wake-up.

The second property ties MPI matching to its reference definition.
:meth:`RankProcess.deliver_message` and :meth:`RankProcess.post_receive`
test ``(source, tag)`` against the wildcards inline; driven with random
posted receives (``ANY_SOURCE`` / ``ANY_TAG`` included), random arrivals,
cancellations and out-of-band completions, they must do what a model built
on :meth:`RecvRequest.matches` does: an arrival completes the first posted
request, in post order, that matches, else queues as unexpected; a post
takes the first unexpected match; completing a request twice raises; a
cancelled request wakes nobody.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidOperationError
from repro.simulator.messages import ANY_SOURCE, ANY_TAG, Message
from repro.simulator.requests import RecvRequest, RequestState, SendRequest
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.workloads.ring import RingApplication
from tests.conftest import WaitProbe


def reference_wakeup(mode, states, slots, order):
    """``(step, position)`` at which the wait is satisfied, else ``None``.

    Step 0 is the moment the wait is posted, step ``j`` the ``j``-th
    completion; ``position`` is the first satisfied entry of the list.
    """
    complete = {i for i, state in enumerate(states) if state == "complete"}
    for step in range(len(order) + 1):
        hit = [k for k, i in enumerate(slots) if i in complete]
        if len(hit) == len(slots) if mode == "all" else hit:
            return step, hit[0]
        if step < len(order):
            complete.add(order[step])
    return None


@st.composite
def wait_programs(draw):
    mode = draw(st.sampled_from(["all", "any", "one"]))
    pool = draw(st.integers(min_value=1, max_value=5))
    kinds = [draw(st.sampled_from(["send", "recv"])) for _ in range(pool)]
    states = [draw(st.sampled_from(["pending", "pending", "complete", "cancelled"]))
              for _ in range(pool)]
    slots = draw(st.lists(st.integers(min_value=0, max_value=pool - 1),
                          min_size=1, max_size=1 if mode == "one" else 7))
    pending = [i for i, state in enumerate(states) if state == "pending"]
    order = draw(st.permutations(pending))
    order = order[:draw(st.integers(min_value=0, max_value=len(order)))]
    rollback_before = draw(st.sampled_from([None, *range(1, len(order) + 1)]))
    return mode, kinds, states, slots, order, rollback_before


@settings(max_examples=300, deadline=None)
@given(wait_programs())
def test_counted_wait_matches_the_rescanning_reference(program):
    mode, kinds, states, slots, order, rollback_before = program
    messages = [Message(source=1, dest=0, tag=i, size_bytes=8, payload=i)
                if kind == "recv" else None
                for i, kind in enumerate(kinds)]
    pool = [RecvRequest(0, 1, i) if kind == "recv"
            else SendRequest(0, Message(source=0, dest=1, tag=i, size_bytes=8))
            for i, kind in enumerate(kinds)]
    for request, state, message in zip(pool, states, messages):
        if state == "complete":
            request._complete(message, 0.0)
        elif state == "cancelled":
            request.cancel()

    probe = WaitProbe(mode, [pool[i] for i in slots])
    wakeup = reference_wakeup(mode, states, slots, order)
    resumed_after = []
    for step, index in enumerate(order, start=1):
        if step == rollback_before:
            probe.roll_back()
        resumed_after.append(len(probe.resumed))
        probe.complete(pool[index], messages[index])
    resumed_after.append(len(probe.resumed))

    if wakeup is None or (rollback_before is not None and wakeup[0] >= rollback_before):
        assert probe.resumed == []
        assert probe.proc.rstats.receives == 0
        return
    step, position = wakeup
    # Exactly once, and at the completion that satisfies the wait.
    assert resumed_after == [0] * step + [1] * (len(order) + 1 - step)
    if mode == "all":
        expected = [messages[i] for i in slots]
        obtained = {i for i in slots if messages[i] is not None}
    else:
        message = messages[slots[position]]
        expected = message if mode == "one" else (position, message)
        obtained = set() if message is None else {slots[position]}
    assert probe.resumed == [expected]
    # One application delivery per message, however often it is listed.
    assert probe.proc.rstats.receives == len(obtained)
    assert all(messages[i].app_delivered == (i in obtained)
               for i, kind in enumerate(kinds) if kind == "recv")


# ------------------------------------------------------------------ matching
SOURCES, TAGS = (1, 2, 3), (0, 1, 2)


@st.composite
def matching_programs(draw):
    """A list of steps for rank 0 of a four-rank simulation."""
    step = st.one_of(
        st.tuples(st.just("post"), st.sampled_from((ANY_SOURCE,) + SOURCES),
                  st.sampled_from((ANY_TAG,) + TAGS)),
        st.tuples(st.just("arrive"), st.sampled_from(SOURCES), st.sampled_from(TAGS)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("complete"), st.integers(min_value=0, max_value=7)),
    )
    return draw(st.lists(step, max_size=24))


@settings(max_examples=300, deadline=None)
@given(matching_programs())
def test_matching_follows_the_reference_definition(program):
    sim = Simulation(RingApplication(nprocs=4, iterations=1), nprocs=4,
                     config=SimulationConfig(record_trace_events=False))
    proc = sim.ranks[0]
    posted, unexpected = [], []  # the model: RecvRequest.matches, in order
    woken, completed, cancelled = [], [], []
    for step in program:
        if step[0] == "post":
            request = proc.post_receive(step[1], step[2])
            hit = next((m for m in unexpected if request.matches(m)), None)
            if hit is None:
                assert request.state is RequestState.PENDING
                posted.append(request)
                request.add_waiter(woken.append)
            else:
                unexpected.remove(hit)
                assert request.state is RequestState.COMPLETE and request.value is hit
        elif step[0] == "arrive":
            message = Message(step[1], 0, step[2], 8, len(completed))
            target = next((r for r in posted if r.matches(message)), None)
            state = None if target is None else target.state
            if state is RequestState.COMPLETE:
                # Completed out of band while still posted: a second completion.
                with pytest.raises(InvalidOperationError):
                    proc.deliver_message(message)
                posted.remove(target)
                assert proc.posted == posted
                return
            proc.deliver_message(message)
            if target is None:
                unexpected.append(message)
            else:
                posted.remove(target)
                if state is RequestState.PENDING:
                    completed.append(target)
                    assert target.value is message
                    assert target.completion_time == sim.engine.now
                else:
                    # A cancelled receive still consumes its match.
                    assert target.value is None
        elif posted:
            request = posted[step[1] % len(posted)]
            if step[0] == "cancel":
                request.cancel()
                if request.state is RequestState.CANCELLED:
                    cancelled.append(request)
            elif request.state is RequestState.PENDING:
                request._complete("out-of-band", sim.engine.now)
                completed.append(request)
        assert proc.posted == posted
        assert list(proc.unexpected) == unexpected
    # Waiters ran once per completion, in completion order; never for a
    # cancelled request.
    assert woken == completed
    assert not set(map(id, cancelled)) & set(map(id, woken))
    for request in completed:
        with pytest.raises(InvalidOperationError):
            request._complete(None, sim.engine.now)
