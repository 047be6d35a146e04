"""Pinned replica records of the hybrid sweeps and of two long hybrid runs.

The batched fast-forward may change how it *gets* to a record -- how many
checkpoint records it materialises on the way, in how many steps it advances
the counters -- never the record.  The fixture holds the result payload
(status, metric tree, data) of every replica of the two Monte Carlo sweeps
``test_call_budget.py`` profiles, plus one 400-iteration failure-free hybrid
replica under HydEE and under coordinated checkpointing (interval 4), written
by the commit *before* batched spans began committing one recovery line
(pin-first: the fixture predates the change it guards).

Every leaf must be reproduced exactly.  Two are named exceptions:
``sim.total_compute_time`` is a float the batched path extrapolates
(``n * delta`` against ``n`` additions) and is compared to 1e-12 relative;
``sim.hybrid.line_commits`` is a decision-log counter younger than the
fixture and is the one leaf allowed to be absent from it.

Regenerate (ONLY when a record change is intended and reviewed) with::

    PYTHONPATH=src:. python tests/integration/test_pinned_sweep_records.py --regen
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, Iterator, Tuple

import pytest

from repro.campaign import run_spec
from repro.faults.montecarlo import run_montecarlo
from tests.integration.test_call_budget import (
    DENSE_SWEEP_FAULT_SEED,
    SWEEP_FAULT_SEED,
    struck_at_most_once,
)
from tests.integration.test_event_stream_pins import scenario_spec

FIXTURE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "data",
    "pinned_sweep_records.json",
)

EXTRAPOLATED_FLOAT = "metrics.sim.total_compute_time"
YOUNGER_THAN_THE_FIXTURE = {"metrics.sim.hybrid.line_commits"}


def sweep_records(name, protocol, iterations, interval, mtbf_factor, seed, replicas):
    base = scenario_spec(name, "stencil2d", iterations, protocol, interval)
    spec = struck_at_most_once(base, mtbf_factor=mtbf_factor, seed=seed)
    sweep = run_montecarlo(spec, replicas=replicas)
    return {run.name: run.to_record()["result"] for run in sweep.runs}


def free_record(protocol):
    spec = dataclasses.replace(
        scenario_spec(f"pinned-free-{protocol}", "stencil2d", 400, protocol, 4),
        execution="hybrid",
        tags={"analysis": "montecarlo-replica"},
    )
    record, _ = run_spec(spec)
    return {spec.name: record["result"]}


#: group -> () -> {replica name: result payload}
GROUPS = {
    "sparse-hydee": lambda: sweep_records(
        "sweep-call-budget", "hydee", 160, 8, 1.5, SWEEP_FAULT_SEED, 8),
    "dense-hydee": lambda: sweep_records(
        "dense-sweep-call-budget", "hydee", 40, 4, 0.25, DENSE_SWEEP_FAULT_SEED, 6),
    "dense-coordinated": lambda: sweep_records(
        "dense-sweep-call-budget", "coordinated", 40, 4, 0.25, DENSE_SWEEP_FAULT_SEED, 6),
    "free-hydee": lambda: free_record("hydee"),
    "free-coordinated": lambda: free_record("coordinated"),
}


def leaves(node: Any, path: Tuple[str, ...] = ()) -> Iterator[Tuple[str, Any]]:
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (str(key),))
    else:
        yield ".".join(path), node


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Any]:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_replica_records_are_reproduced_leaf_for_leaf(group, pinned):
    # Through JSON, like the fixture: tuples become lists, int keys strings.
    records = json.loads(json.dumps(GROUPS[group]()))
    assert sorted(records) == sorted(pinned[group])
    for name, expected in pinned[group].items():
        got = dict(leaves(records[name]))
        want = dict(leaves(expected))
        assert set(got) - set(want) <= YOUNGER_THAN_THE_FIXTURE, name
        for path, value in want.items():
            if path == EXTRAPOLATED_FLOAT:
                assert got[path] == pytest.approx(value, rel=1e-12), (name, path)
            else:
                assert got[path] == value, (name, path)


def test_fixture_covers_exactly_the_groups(pinned):
    assert sorted(pinned) == sorted(GROUPS)


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        raise SystemExit("pass --regen to overwrite the pinned fixture")
    payload = {group: GROUPS[group]() for group in sorted(GROUPS)}
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE} ({sum(map(len, payload.values()))} records)")
