"""Simulator memory follows live state, not run length.

A HydEE checkpoint carries the RPP table and the sender log (Algorithm 1
line 21), and log garbage collection (Section III-E) keeps the live logs
bounded.  What a finished exact run still holds must therefore grow with
what is live -- one recovery line per rank and the RPP history -- and not
with the number of checkpoints the run took: a checkpoint shares the RPP
history instead of copying it, and stable storage releases every line a
rollback can no longer reach.

Live memory is what ``tracemalloc`` still traces after the run, with the
simulation alive.  Copying the RPP history into every checkpoint and keeping
every record held 74.8 MiB after 1 000 stencil2d iterations (9.6x the
250-iteration run) and 20.6 MiB after the checkpoint-dense pipeline.
"""

import gc
import tracemalloc

import pytest

from repro.scenarios.build import build
from tests.integration.test_event_stream_pins import scenario_spec

MIB = 1024 * 1024


def run_traced(kind, iterations, interval):
    """An exact 16-rank HydEE run (4 block clusters): the simulation and the
    bytes ``tracemalloc`` still traces after it."""
    spec = scenario_spec(f"memory-{kind}-{iterations}", kind, iterations, "hydee", interval)
    gc.collect()
    tracemalloc.start()
    try:
        sim = build(spec)
        result = sim.run()
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.completed
    return sim, live


def assert_one_line_per_rank(sim, iterations, interval):
    # Every checkpoint was saved; only the last line is held.
    assert sim.storage.saves == 16 * (iterations // interval)
    assert sim.storage.count() == 16


@pytest.fixture(scope="module")
def stencil_runs():
    return {iterations: run_traced("stencil2d", iterations, 8) for iterations in (250, 1000)}


def test_long_stencil_run_stays_within_budget(stencil_runs):
    sim, live = stencil_runs[1000]
    assert live <= 4 * MIB, f"{live / MIB:.1f} MiB live"
    assert_one_line_per_rank(sim, 1000, 8)


def test_stencil_live_memory_grows_linearly_with_run_length(stencil_runs):
    # Four times the iterations: linear growth plus a constant stays below
    # 4x, a checkpoint that copies the whole history grows towards 16x.
    (short, short_live), (_, long_live) = stencil_runs[250], stencil_runs[1000]
    growth = long_live / short_live
    assert growth <= 5.0, f"live memory grew {growth:.1f}x for 4x the iterations"
    assert_one_line_per_rank(short, 250, 8)


def test_checkpoint_dense_pipeline_stays_within_budget():
    # The observatory's ckpt_dense spec: a checkpoint every iteration.
    sim, live = run_traced("pipeline", 480, 1)
    assert live <= 1 * MIB, f"{live / MIB:.2f} MiB live"
    assert_one_line_per_rank(sim, 480, 1)
