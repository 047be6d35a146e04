"""Call-budget guard for the failure-free per-message path.

Interpreter work per application message is what every exact replica and
every hybrid guard window pays, and it regrows silently: a property here, a
helper there.  This test profiles one small HydEE replica and bounds the
profiled calls (Python functions and C builtins alike) per application
message.  The count is a property of the code path, not of the host: it
repeats exactly from run to run, so the test cannot flake on a noisy
machine.
"""

from __future__ import annotations

import cProfile
import pstats

from repro.scenarios.build import build
from tests.integration.test_event_stream_pins import scenario_spec

#: measured 88.63 calls per message (CPython 3.11, pure-Python engine core;
#: 147.44 before the lean path) plus 10 %.  Raise it only with a reason:
#: the budget is the point of the test.
CALL_BUDGET_PER_MESSAGE = 97.0


def test_profiled_calls_per_message_stay_within_budget():
    # 16 ranks, 8 iterations, 4 block clusters, one checkpoint at the end.
    simulation = build(scenario_spec("call-budget", "stencil2d", 8, "hydee", 8))
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = simulation.run()
    finally:
        profiler.disable()
    assert result.completed
    messages = result.metric("sim.app_messages")
    assert messages == 16 * 3 * 8  # 48 halo messages per iteration on the 4x4 grid
    calls = pstats.Stats(profiler).total_calls
    assert calls / messages <= CALL_BUDGET_PER_MESSAGE, (
        f"{calls / messages:.2f} profiled calls per application message "
        f"(budget {CALL_BUDGET_PER_MESSAGE}): the per-message path has regrown"
    )
