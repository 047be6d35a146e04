"""Property-based tests (hypothesis): sharing one simulation between replicas
that drew the same failure trace is invisible in the records.

The slow reference model is the campaign before sharing existed: every
replica spec through :func:`repro.campaign.runner.run_spec`, one simulation
each, under the calibration cache the campaign itself would have activated.
The generated fault models cover what decides how much is shared: sparse
exponential draws (mostly the empty trace), dense ones (all distinct),
``fixed`` on every rank or on a single one (every replica the *same*
non-empty trace), each uncapped or capped at one or two failures, exact and
hybrid.
"""

import dataclasses
import functools
import json
import os
import tempfile
from contextlib import nullcontext

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.runner import run_spec
from repro.campaign.store import ResultsStore
from repro.faults.montecarlo import prewarm_calibration, replica_specs, run_montecarlo
from repro.faults.spec import FaultModelSpec
from repro.faults.trace import generate_trace
from repro.scenarios.build import build
from repro.scenarios.spec import ClusteringSpec, ProtocolSpec, ScenarioSpec, WorkloadSpec
from repro.simulator.calibration import CalibrationCache, activated

NPROCS = 4
BASE = ScenarioSpec(
    name="mc-sharing",
    workload=WorkloadSpec(kind="stencil2d", nprocs=NPROCS, iterations=24),
    protocol=ProtocolSpec(
        name="hydee",
        clustering=ClusteringSpec(method="block", num_clusters=2),
        options={"checkpoint_interval": 4, "checkpoint_size_bytes": 4096},
    ),
    config={"raise_on_incomplete": False},
)


@functools.lru_cache(maxsize=None)
def makespan():
    return build(BASE).run().makespan


def exponential(factor):
    """Per-rank MTBF = ``factor`` x nprocs x makespan: a replica expects
    ``1 / factor`` failures and draws the empty trace with ``exp(-1/factor)``."""
    return lambda seed: FaultModelSpec(
        distribution="exponential", params={"mtbf_s": factor * NPROCS * makespan()},
        horizon_s=makespan(), seed=seed,
    )


def fixed(fraction):
    """Every rank fails at ``fraction`` x makespan, in every replica alike."""
    return lambda seed: FaultModelSpec(
        distribution="fixed", params={"mtbf_s": fraction * makespan()},
        horizon_s=makespan(), seed=seed,
    )


def replayed(fraction, rank):
    """Only ``rank`` fails, once, at ``fraction`` x makespan, in every replica
    alike: every other rank's doubled interval ends past the horizon."""
    strike = fraction * makespan()
    scale = {q: 2.0 for q in range(NPROCS) if q != rank}
    return lambda seed: FaultModelSpec(
        distribution="fixed", params={"mtbf_s": strike, "mtbf_scale": scale},
        horizon_s=strike, seed=seed,
    )


CAPS = st.sampled_from([None, 1, 2])
#: (model factory, max_failures).  Dense draws are always capped: an uncapped
#: one strikes during recovery, which costs seconds per replica and is not
#: what this file is about.
fault_models = st.one_of(
    st.tuples(st.builds(exponential, st.floats(1.5, 6.0)), CAPS),
    st.tuples(st.builds(exponential, st.floats(0.25, 0.6)), st.sampled_from([1, 2])),
    st.tuples(st.builds(fixed, st.floats(0.3, 0.9)), CAPS),
    st.tuples(st.builds(replayed, st.floats(0.2, 0.9), st.integers(0, NPROCS - 1)), CAPS),
)

scenarios = st.builds(
    lambda model, seed, execution: dataclasses.replace(
        BASE,
        fault_model=dataclasses.replace(model[0](seed), max_failures=model[1]),
        execution=execution,
    ),
    fault_models,
    st.integers(0, 10_000),
    st.sampled_from(["exact", "hybrid"]),
)


def trace_of(spec):
    return tuple((e.time, e.ranks) for e in generate_trace(spec.fault_model, NPROCS))


def test_replayed_draws_one_failure_of_one_rank():
    spec = dataclasses.replace(BASE, fault_model=replayed(0.37, 2)(seed=5))
    assert trace_of(spec) == ((0.37 * makespan(), (2,)),)


def reference_records(specs):
    """One simulation per replica, as the campaign ran them before sharing."""
    cache = CalibrationCache()
    warm = specs[0].execution == "hybrid" and prewarm_calibration(specs[0], cache)
    with activated(cache) if warm else nullcontext():
        return [run_spec(spec)[0] for spec in specs]


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios)
def test_records_equal_one_simulation_per_replica(base):
    replicas = 6
    specs = replica_specs(base, replicas)
    store = ResultsStore()
    outcome = run_montecarlo(base, replicas=replicas, store=store)

    stored = [store.get(spec.spec_hash()) for spec in specs]
    assert stored == reference_records(specs)
    traces = [trace_of(spec) for spec in specs]
    assert outcome.executed == len(set(traces))
    assert outcome.shared == replicas - outcome.executed and outcome.cache_hits == 0
    # A follower owns its result: no container is the leader's object.
    for index, trace in enumerate(traces):
        leader = traces.index(trace)
        if leader != index:
            mine, theirs = stored[index]["result"], stored[leader]["result"]
            assert mine is not theirs
            assert all(mine[key] is not theirs[key] for key in mine
                       if isinstance(mine[key], (dict, list)))


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios)
def test_growing_runs_only_unseen_traces_and_workers_do_not_show(base):
    specs = replica_specs(base, 8)
    traces = [trace_of(spec) for spec in specs]
    with tempfile.TemporaryDirectory() as tmp:
        grown_path = os.path.join(tmp, "grown.json")
        first = run_montecarlo(base, replicas=4, store=ResultsStore(grown_path))
        assert first.executed == len(set(traces[:4]))
        grown = run_montecarlo(base, replicas=8, store=ResultsStore(grown_path))
        # A stored record is a valid leader: only traces the store lacks run.
        assert grown.cache_hits == 4
        assert grown.executed == len(set(traces[4:]) - set(traces[:4]))
        assert grown.executed + grown.shared + grown.cache_hits == 8

        pooled_path = os.path.join(tmp, "pooled.json")
        pooled = run_montecarlo(base, replicas=8, workers=2, store=ResultsStore(pooled_path))
        assert pooled.executed == len(set(traces))
        assert read_bytes(pooled_path) == read_bytes(grown_path)
        # (through JSON, as the file holds them: a spec dict carries a tuple)
        assert ResultsStore(grown_path).records() == {
            record["spec_hash"]: json.loads(json.dumps(record))
            for record in reference_records(specs)
        }
