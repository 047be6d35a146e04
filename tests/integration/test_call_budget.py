"""Call-budget guards for the two failure-free per-message paths.

Interpreter work per application message is what every exact replica and
every hybrid guard window pays -- and, through the fast-forward interpreter
of the same op stream, what every hybrid epoch pays that cannot be batched.
Both regrow silently: a property here, a helper there.  These tests profile
one small HydEE replica per path and bound the profiled calls (Python
functions and C builtins alike) per application message.  The count is a
property of the code path, not of the host: it repeats exactly from run to
run, so the tests cannot flake on a noisy machine.
"""

from __future__ import annotations

import cProfile
import dataclasses
import pstats

from repro.scenarios.build import build
from tests.integration.test_event_stream_pins import scenario_spec

#: measured 88.63 calls per message (CPython 3.11, pure-Python engine core;
#: 147.44 before the lean path) plus 10 %.  Raise it only with a reason:
#: the budget is the point of the test.
CALL_BUDGET_PER_MESSAGE = 97.0

#: measured 66.19 calls per message (same interpreter and core; 65.56 with
#: the mirror communicator this interpreter replaced) plus 10 %.  The run
#: is 10 warm-up and 1 final iteration of DES around 189 fast-forwarded
#: ones, so the fast-forward interpreter dominates the count.
FF_CALL_BUDGET_PER_MESSAGE = 72.8


def profiled_calls_per_message(spec, iterations):
    simulation = build(spec)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = simulation.run()
    finally:
        profiler.disable()
    assert result.completed
    messages = result.metric("sim.app_messages")
    # 48 halo messages per iteration on the 4x4 grid
    assert messages == 16 * 3 * iterations
    return pstats.Stats(profiler).total_calls / messages, simulation


def test_profiled_calls_per_message_stay_within_budget():
    # 16 ranks, 8 iterations, 4 block clusters, one checkpoint at the end.
    calls, _ = profiled_calls_per_message(
        scenario_spec("call-budget", "stencil2d", 8, "hydee", 8), 8
    )
    assert calls <= CALL_BUDGET_PER_MESSAGE, (
        f"{calls:.2f} profiled calls per application message "
        f"(budget {CALL_BUDGET_PER_MESSAGE}): the per-message path has regrown"
    )


def test_fast_forward_calls_per_message_stay_within_budget():
    # Checkpoint interval 2 leaves no boundary-free probe window, so nothing
    # is batched: every fast-forwarded iteration is driven per message.
    spec = dataclasses.replace(
        scenario_spec("ff-call-budget", "stencil2d", 200, "hydee", 2),
        execution="hybrid",
    )
    calls, simulation = profiled_calls_per_message(spec, 200)
    stats = simulation.hybrid_stats
    assert stats["batched_iterations"] == 0
    assert stats["ff_iterations"] == 16 * 189
    assert calls <= FF_CALL_BUDGET_PER_MESSAGE, (
        f"{calls:.2f} profiled calls per application message "
        f"(budget {FF_CALL_BUDGET_PER_MESSAGE}): the fast-forward interpreter has regrown"
    )
