"""Call-budget guards for the per-message paths and the results-store paths.

Interpreter work per application message is what every exact replica and
every hybrid guard window pays -- and, through the fast-forward interpreter
of the same op stream, what every hybrid epoch pays that cannot be batched.
Both regrow silently: a property here, a helper there.  These tests profile
one small HydEE replica per path and bound the profiled calls (Python
functions and C builtins alike) per application message.  The count is a
property of the code path, not of the host: it repeats exactly from run to
run, and under every ``PYTHONHASHSEED`` (see :func:`profiled`), so the tests
cannot flake on a noisy machine.  Each budget is one number, set at least
5 % above the CPython 3.11 count it notes, the headroom CI's other CPythons
(3.9, 3.12) draw on.

The third test bounds a whole sparse Monte Carlo sweep per simulated
rank-iteration: what it guards is that replicas which drew the same failure
trace stay one simulation and that the pre-warm stays a warm-up.  The fourth
bounds one long failure-free hybrid replica, where it guards that a batched
span counts the checkpoints it passes and builds its last.  The fifth bounds a
dense sweep -- every replica struck, HydEE then coordinated, checkpoint
interval 4 -- where it guards that the spans around each strike are batched
from the cached start, under both protocols.  The sixth bounds an exact
pipeline that checkpoints every iteration, where it guards the coordinated
checkpoint: per rank and boundary, two resumes (the wave, the write) and one
record.

The last two tests bound the layers no simulation touches the same way, per
record of a 1 000-record store: adding 32 records (open, ``put``, merge
under the lock, rewrite) and one CLI pivot query over all of them.

Re-measure every count next to its budget, without editing the file::

    PYTHONPATH=src python -m tests.integration.test_call_budget
"""

from __future__ import annotations

import contextlib
import copy
import cProfile
import dataclasses
import functools
import io
import json
import os
import tempfile

import pytest

from repro.campaign import ResultsStore, cli, run_spec
from repro.faults.montecarlo import replica_specs, run_montecarlo
from repro.faults.spec import FaultModelSpec
from repro.faults.trace import generate_trace
from repro.scenarios.build import build
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from tests.integration.test_event_stream_pins import scenario_spec

#: measured 57.65 calls per message (CPython 3.11, pure-Python engine core,
#: every profiler entry counted; 59.01 with the op dispatch one call deeper
#: and a lambda around every condition waiter; the earlier counts in these notes went
#: through ``pstats`` labels: 57.98; 62.72 with a drain length read before
#: every pop and a request id drawn per request; 69.51 with a completion
#: predicate called before every event, an arrival hop through the
#: simulation, an EventHandle per arrival and a ``record_delivery`` call
#: with trace events off; 70.46 with the duplicate counters, 88.51 before
#: the lean per-message hops, 147.44 before the lean path); the budget
#: leaves 8.1 % headroom.  Raise it only with a reason: the budget is the
#: point of the test.  What it cannot see, Enum member loads in a C slot, is
#: guarded by ``tests/unit/test_enum_loads_off_hot_path.py``.
CALL_BUDGET_PER_MESSAGE = 62.3

#: measured 48.53 calls per message (same interpreter, core and counting;
#: 49.25 with the op dispatch one call deeper and a lambda around every
#: condition waiter;
#: 47.99 through ``pstats`` labels; 50.34 with a drain length read before
#: every pop and a request id per request; 51.59 with the exact path's
#: completion predicate, arrival hop and EventHandle; 52.59 with the
#: duplicate counters, 67.05 before the lean per-message hops, 65.56 with
#: the mirror communicator this interpreter replaced); the budget leaves
#: 7.2 % headroom.  The run is 7 warm-up and 1 final iteration of DES around
#: 192 fast-forwarded ones, so the fast-forward interpreter dominates the
#: count.
FF_CALL_BUDGET_PER_MESSAGE = 52.0

#: measured 16.23 calls per rank-iteration (16.47 with the op dispatch one
#: call deeper and a lambda around every condition waiter; 16.48 with a second way into
#: the event queue; 16.12 to 16.40 through ``pstats`` labels, depending on
#: ``PYTHONHASHSEED``; 17.39 with a drain length read before every pop and
#: a request id per request, where this note said 17.45; 18.20 with the
#: exact path's completion predicate, arrival hop and EventHandle; 18.27
#: before the keyword-only protocol options; 18.79 with the four-iteration
#: probe window and its pair rung; 18.99 with the duplicate counters; 22.31
#: before the lean per-message hops; 23.83 when a batched span built and
#: acknowledged every checkpoint it passed; 28.57 when the DES window opened
#: four to six iterations before a strike and the pre-warm ran 34
#: iterations; 39.49 when each of the eight replicas was simulated and the
#: pre-warm ran its scenario to the end); the budget leaves 9.1 % headroom.
#: Five of the eight traces are empty and run once; a sweep with fewer empty traces costs more per
#: rank-iteration by construction, so the fault seed is pinned and the trace
#: census asserted.
SWEEP_CALL_BUDGET_PER_RANK_ITERATION = 17.7
SWEEP_FAULT_SEED, SWEEP_STRIKES = 0, [0, 1, 0, 1, 1, 0, 0, 0]

#: measured 4.58 calls per rank-iteration (4.62 with the op dispatch one
#: call deeper and a lambda around every condition waiter; 4.59 through ``pstats`` labels;
#: 4.69 with a drain length read before every pop and a request id per
#: request; 4.82 with the exact path's completion predicate, arrival hop and
#: EventHandle; 4.86 before the two-iteration probe; 5.23 before the lean
#: per-message hops; 18.62 with 500 boundaries built and acknowledged one by
#: one); the budget leaves 28.8 % headroom: what is left is the DES warm-up
#: and final iteration, the probe, and 8 of the 500 boundaries.
LINE_CALL_BUDGET_PER_RANK_ITERATION = 5.9

#: measured 86.19 calls per rank-iteration (87.98 with the op dispatch one
#: call deeper and a lambda around every condition waiter; 88.11 with a second way into the
#: event queue; 86.19 to 87.20 through ``pstats`` labels, depending on
#: ``PYTHONHASHSEED``; 93.74 with a drain length read before every pop and a
#: request id per request, where this note said 94.14; 99.83 with the exact
#: path's completion predicate, arrival hop and EventHandle; 101.47 with the
#: duplicate counters; 120.85 before the lean per-message hops; 135.62 with
#: the wider window and the longer pre-warm; 184.35 when a coordinated
#: replica never batched and a failed first probe sent the whole epoch to
#: the per-message driver); the budget leaves 8.9 % headroom.  Every replica
#: is struck once, on average a fifth into the run; later strikes leave more to batch, so the fault seed is pinned
#: and the trace census asserted.
DENSE_SWEEP_CALL_BUDGET_PER_RANK_ITERATION = 93.9
DENSE_SWEEP_FAULT_SEED = 13

#: measured 124.85 calls per rank-iteration in a fresh interpreter, 124.50
#: in :func:`main`'s order (136.41 / 136.06 when the wave tracked its members
#: in sets, the cut took two hooks, every rank ran the drain check, records
#: were dataclasses, the iteration notice and the op dispatch were one call
#: deeper and a lambda wrapped every condition waiter); the budget leaves
#: 6.5 % headroom.  A rank-iteration here is about one message and one
#: checkpoint.
CHECKPOINT_CALL_BUDGET_PER_RANK_ITERATION = 133.0

#: measured 1.47 calls per stored record (2.44 when the save under the lock
#: split and merged a file that held exactly what the store had read; 3 154
#: when the store was written by ``json.dump(indent=1)``, i.e. by the
#: pure-Python encoder).  What is left is one ``str.find`` per line, to slice
#: its key, when the store is opened (the decoder runs only for a key with a
#: quote or a backslash in its slice); the save re-reads and hashes the file
#: but splits nothing.  The budget leaves 104 % headroom, for the
#: interpreter's own tempfile / lock plumbing, not for a decode, an encode
#: or a second split per record.
STORE_CALL_BUDGET_PER_RECORD = 3.0

#: measured 74.56 calls per record scanned (81.56 when every record's metric
#: tree was flattened at load and the JSON output was written chunk by
#: chunk; 84.8 before; 587.5 with every metric leaf through the checked
#: ``MetricSet.set`` and ``typing.Mapping`` tests); the budget leaves 30.1 %
#: headroom for argparse and dataclass internals that differ between
#: CPythons.
QUERY_CALL_BUDGET_PER_RECORD = 97.0


def profiled(body):
    """``(profiled calls, body())``.

    The calls are summed over the profiler's own entries, one per code
    object or builtin.  ``pstats.Stats`` keys functions by (file, line,
    name) instead, under which every generated dataclass or namedtuple
    ``__init__`` is ``<string>:2:__init__``: those entries collide, and which
    one survives depends on dict order, i.e. on ``PYTHONHASHSEED``.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        outcome = body()
    finally:
        profiler.disable()
    return sum(entry.callcount for entry in profiler.getstats()), outcome


def profiled_calls_per_message(spec, iterations):
    simulation = build(spec)
    calls, result = profiled(simulation.run)
    assert result.completed
    messages = result.metric("sim.app_messages")
    # 48 halo messages per iteration on the 4x4 grid
    assert messages == 16 * 3 * iterations
    return calls / messages, simulation


def exact_calls_per_message():
    # 16 ranks, 8 iterations, 4 block clusters, one checkpoint at the end.
    calls, _ = profiled_calls_per_message(
        scenario_spec("call-budget", "stencil2d", 8, "hydee", 8), 8
    )
    return calls


def test_profiled_calls_per_message_stay_within_budget():
    calls = exact_calls_per_message()
    assert calls <= CALL_BUDGET_PER_MESSAGE, (
        f"{calls:.2f} profiled calls per application message "
        f"(budget {CALL_BUDGET_PER_MESSAGE}): the per-message path has regrown"
    )


def fast_forward_calls_per_message():
    # Checkpoint interval 2 leaves no boundary-free probe window, so nothing
    # is batched: every fast-forwarded iteration is driven per message.
    spec = dataclasses.replace(
        scenario_spec("ff-call-budget", "stencil2d", 200, "hydee", 2),
        execution="hybrid",
    )
    calls, simulation = profiled_calls_per_message(spec, 200)
    stats = simulation.hybrid_stats
    assert stats["batched_iterations"] == 0
    # Everything but the DES warm-up and the final iteration.
    assert 2 * 2 + 2 < stats["warmup_iterations"] <= 4 * 2 + 2
    assert stats["ff_iterations"] == 16 * (200 - stats["warmup_iterations"] - 1)
    return calls


def test_fast_forward_calls_per_message_stay_within_budget():
    calls = fast_forward_calls_per_message()
    assert calls <= FF_CALL_BUDGET_PER_MESSAGE, (
        f"{calls:.2f} profiled calls per application message "
        f"(budget {FF_CALL_BUDGET_PER_MESSAGE}): the fast-forward interpreter has regrown"
    )


def struck_at_most_once(base, mtbf_factor, seed):
    """``base`` (16 ranks) under exponential faults over its failure-free
    makespan, at most one per replica; the per-rank MTBF is ``mtbf_factor``
    x 16 x makespan, i.e. ``1 / mtbf_factor`` failures expected per run."""
    makespan = build(base).run().makespan
    return dataclasses.replace(
        base,
        fault_model=FaultModelSpec(
            distribution="exponential",
            params={"mtbf_s": mtbf_factor * 16 * makespan},
            horizon_s=makespan,
            max_failures=1,
            seed=seed,
        ),
    )


def strikes_per_replica(spec, replicas):
    return [len(generate_trace(s.fault_model, 16)) for s in replica_specs(spec, replicas)]


def sparse_sweep_calls_per_rank_iteration():
    iterations, replicas = 160, 8
    base = scenario_spec("sweep-call-budget", "stencil2d", iterations, "hydee", 8)
    spec = struck_at_most_once(base, mtbf_factor=1.5, seed=SWEEP_FAULT_SEED)
    assert strikes_per_replica(spec, replicas) == SWEEP_STRIKES

    calls, outcome = profiled(lambda: run_montecarlo(spec, replicas=replicas))
    assert outcome.completed_replicas == replicas
    assert (outcome.executed, outcome.shared) == (4, 4)  # 3 struck + the empty trace
    assert outcome.metric("faults.sim.hybrid.fallback.mean") == 0.0
    return calls / (16 * iterations * replicas)


def test_sparse_sweep_calls_per_rank_iteration_stay_within_budget():
    per_rank_iteration = sparse_sweep_calls_per_rank_iteration()
    assert per_rank_iteration <= SWEEP_CALL_BUDGET_PER_RANK_ITERATION, (
        f"{per_rank_iteration:.2f} profiled calls per rank-iteration "
        f"(budget {SWEEP_CALL_BUDGET_PER_RANK_ITERATION}): equal traces are simulated "
        "more than once, the pre-warm runs past its first verified period, or "
        "the DES window around a strike has widened"
    )


def line_calls_per_rank_iteration():
    # 2 000 iterations, a checkpoint every 4: one batched span between the
    # warm-up and the final iteration.  Every checkpoint is counted; only the
    # warm-up's, the few the interval rung verifies on, and the last are built.
    iterations, interval = 2000, 4
    spec = dataclasses.replace(
        scenario_spec("line-call-budget", "stencil2d", iterations, "hydee", interval),
        execution="hybrid",
    )
    simulation = build(spec)
    calls, result = profiled(simulation.run)
    assert result.completed
    assert simulation.hybrid_stats["fallback"] == 0
    assert simulation.storage.writes == 16 * (iterations // interval)
    assert simulation.storage.saves <= 16 * 10
    assert simulation.hybrid_stats["line_commits"] < simulation.storage.saves
    return calls / (16 * iterations)


def test_long_failure_free_replica_commits_one_line_per_span():
    per_rank_iteration = line_calls_per_rank_iteration()
    assert per_rank_iteration <= LINE_CALL_BUDGET_PER_RANK_ITERATION, (
        f"{per_rank_iteration:.2f} profiled calls per rank-iteration "
        f"(budget {LINE_CALL_BUDGET_PER_RANK_ITERATION}): a batched span is "
        "building the checkpoints it passes again"
    )


def dense_sweep_calls_per_rank_iteration():
    iterations, replicas, protocols = 40, 6, ("hydee", "coordinated")
    calls = 0
    for protocol in protocols:
        base = scenario_spec("dense-sweep-call-budget", "stencil2d", iterations, protocol, 4)
        spec = struck_at_most_once(base, mtbf_factor=0.25, seed=DENSE_SWEEP_FAULT_SEED)
        assert strikes_per_replica(spec, replicas) == [1] * replicas

        sweep_calls, outcome = profiled(functools.partial(run_montecarlo, spec, replicas=replicas))
        calls += sweep_calls
        assert outcome.completed_replicas == outcome.executed == replicas
        assert outcome.metric("faults.sim.hybrid.fallback.mean") == 0.0
        assert outcome.metric("faults.sim.hybrid.batched_iterations.mean") > 0.0
    return calls / (16 * iterations * replicas * len(protocols))


def test_dense_sweep_calls_per_rank_iteration_stay_within_budget():
    per_rank_iteration = dense_sweep_calls_per_rank_iteration()
    assert per_rank_iteration <= DENSE_SWEEP_CALL_BUDGET_PER_RANK_ITERATION, (
        f"{per_rank_iteration:.2f} profiled calls per rank-iteration "
        f"(budget {DENSE_SWEEP_CALL_BUDGET_PER_RANK_ITERATION}): a protocol has stopped "
        "batching from the cached start, or a failed probe costs more than its window"
    )


def checkpoint_calls_per_rank_iteration():
    # 16 ranks, 32 iterations, 4 block clusters, a checkpoint every iteration.
    iterations = 32
    simulation = build(scenario_spec("ckpt-call-budget", "pipeline", iterations, "hydee", 1))
    calls, result = profiled(simulation.run)
    assert result.completed
    assert result.metric("sim.app_messages") == 15 * iterations
    assert simulation.storage.writes == 16 * iterations
    return calls / (16 * iterations)


def test_checkpoint_calls_per_rank_iteration_stay_within_budget():
    per_rank_iteration = checkpoint_calls_per_rank_iteration()
    assert per_rank_iteration <= CHECKPOINT_CALL_BUDGET_PER_RANK_ITERATION, (
        f"{per_rank_iteration:.2f} profiled calls per rank-iteration "
        f"(budget {CHECKPOINT_CALL_BUDGET_PER_RANK_ITERATION}): the coordinated "
        "checkpoint boundary has regrown"
    )


# ------------------------------------------------------------ results store
STORED_RECORDS, NEW_RECORDS, PIVOT_COLUMNS = 1000, 32, 8


def synthetic_record(template, index):
    record = copy.deepcopy(template)
    record["name"] = record["spec"]["name"] = f"synthetic-{index}"
    record["spec"]["tags"] = {
        "family": "synthetic",
        "row": f"r{index // PIVOT_COLUMNS:04d}",
        "col": f"c{index % PIVOT_COLUMNS}",
    }
    record["result"]["metrics"]["sim"]["makespan"] = 1.0 + index
    record["spec_hash"] = f"{index:016x}"
    return record


def write_big_store(path):
    """A 1 000-record store of real (tiny) simulation records at ``path``;
    returns 32 more."""
    template, _ = run_spec(
        ScenarioSpec(name="seed", workload=WorkloadSpec(kind="ring", nprocs=4, iterations=2))
    )
    store = ResultsStore(path)
    for index in range(STORED_RECORDS):
        record = synthetic_record(template, index)
        store.put(record["spec_hash"], record)
    store.save()
    return [synthetic_record(template, STORED_RECORDS + i) for i in range(NEW_RECORDS)]


@pytest.fixture(scope="module")
def big_store(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("call_budget") / "store.json")
    return path, write_big_store(path)


def store_append_calls_per_record(path, fresh):
    def append():
        store = ResultsStore(path)
        for record in fresh:
            store.put(record["spec_hash"], record)
        store.save()
        return len(store)

    calls, stored = profiled(append)
    assert stored == STORED_RECORDS + NEW_RECORDS
    return calls / stored


def test_store_append_calls_per_record_stay_within_budget(big_store):
    per_record = store_append_calls_per_record(*big_store)
    assert per_record <= STORE_CALL_BUDGET_PER_RECORD, (
        f"{per_record:.2f} profiled calls per stored record "
        f"(budget {STORE_CALL_BUDGET_PER_RECORD}): records the campaign did not "
        "compute are being decoded or re-encoded again"
    )


def query_calls_per_record(path):
    scanned = len(ResultsStore(path))
    argv = ["query", path, "--where", "tags.family=synthetic",
            "--pivot", "tags.row", "tags.col", "sim.makespan", "--format", "json"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        calls, exit_code = profiled(lambda: cli.main(argv))
    assert exit_code == 0
    rows = json.loads(stdout.getvalue())
    assert sum(len(row) - 1 for row in rows) == scanned
    return calls / scanned


def test_query_calls_per_record_stay_within_budget(big_store):
    path, _ = big_store  # 1 032 records on disk once the append test has run
    per_record = query_calls_per_record(path)
    assert per_record <= QUERY_CALL_BUDGET_PER_RECORD, (
        f"{per_record:.2f} profiled calls per record scanned "
        f"(budget {QUERY_CALL_BUDGET_PER_RECORD}): the record -> RunResult path has regrown"
    )


def main():
    """Print every measured count next to its budget."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "store.json")
        fresh = write_big_store(path)
        rows = [
            ("calls per message, exact", CALL_BUDGET_PER_MESSAGE,
             exact_calls_per_message),
            ("calls per message, fast-forward", FF_CALL_BUDGET_PER_MESSAGE,
             fast_forward_calls_per_message),
            ("calls per rank-iteration, sparse sweep", SWEEP_CALL_BUDGET_PER_RANK_ITERATION,
             sparse_sweep_calls_per_rank_iteration),
            ("calls per rank-iteration, 2 000-iteration replica",
             LINE_CALL_BUDGET_PER_RANK_ITERATION, line_calls_per_rank_iteration),
            ("calls per rank-iteration, dense sweep",
             DENSE_SWEEP_CALL_BUDGET_PER_RANK_ITERATION, dense_sweep_calls_per_rank_iteration),
            ("calls per rank-iteration, dense checkpoints",
             CHECKPOINT_CALL_BUDGET_PER_RANK_ITERATION, checkpoint_calls_per_rank_iteration),
            ("calls per stored record, append", STORE_CALL_BUDGET_PER_RECORD,
             functools.partial(store_append_calls_per_record, path, fresh)),
            ("calls per record scanned, query", QUERY_CALL_BUDGET_PER_RECORD,
             functools.partial(query_calls_per_record, path)),
        ]
        for label, budget, measure in rows:
            print(f"{label:<50} {measure():9.2f}   budget {budget}", flush=True)


if __name__ == "__main__":
    main()
