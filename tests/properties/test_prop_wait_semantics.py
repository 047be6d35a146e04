"""Property test (hypothesis) for ``wait`` / ``waitall`` / ``waitany``.

:meth:`RankProcess._handle_wait` counts pending requests instead of
re-scanning the list on every completion.  The property drives it with
random request lists -- pre-completed, cancelled, duplicate and
late-completing send and receive requests, completed in random order, with
an optional rollback in between -- and compares against a reference model
that *does* re-scan: the wait must resume exactly once, at the completion
that satisfies it, with the values in request order and one application
delivery per message; a new incarnation drops the wake-up.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.messages import Message
from repro.simulator.requests import RecvRequest, SendRequest
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
        assert probe.proc.deliveries == 0
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
    assert probe.proc.deliveries == probe.proc.rstats.receives == len(obtained)
    assert all(messages[i].app_delivered == (i in obtained)
               for i, kind in enumerate(kinds) if kind == "recv")
