#!/usr/bin/env python3
"""Monte Carlo fault campaigns: draw failures instead of hand-writing them.

The script

1. declares a :class:`FaultModelSpec` -- a seeded exponential per-node
   failure process with *node-level* spatial correlation (every drawn
   failure takes down a whole physical node of the scenario's topology),
2. shows the :class:`FailureTrace` the model draws ahead of simulation --
   plain failure events -- and keeps it as an ordinary scenario whose
   ``failures`` list replays the draw (same hash after a JSON round trip,
   same makespan as the fault-model run),
3. fans 10 seeded replicas of the scenario through the campaign runner
   (each replica re-draws the trace under its own ``replica`` index) and
4. prints the ``faults.*`` aggregate: mean/stddev/95%-CI makespan,
   failures injected and ranks rolled back across the replicas.
"""

import dataclasses

from repro.faults import FaultModelSpec, generate_trace
from repro.faults.montecarlo import run_montecarlo
from repro.scenarios import (
    ClusteringSpec,
    NetworkSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build,
    build_topology,
)

NPROCS = 16
ITERATIONS = 6
REPLICAS = 10


def main() -> None:
    # Four ranks per node, one physical cluster per node; HydEE's protocol
    # clusters are aligned with the nodes, so one node failure rolls back
    # exactly one cluster.
    topology = TopologySpec(preset="cluster-per-node", params={"ranks_per_node": 4})
    fault_model = FaultModelSpec(
        distribution="exponential",
        params={"mtbf_s": 8e-3},
        scope="node",          # a strike kills the whole node (4 ranks)
        horizon_s=2e-3,
        seed=42,
    )
    spec = ScenarioSpec(
        name="montecarlo:hydee",
        workload=WorkloadSpec(kind="stencil2d", nprocs=NPROCS, iterations=ITERATIONS),
        protocol=ProtocolSpec(
            name="hydee",
            options={"checkpoint_interval": 1, "checkpoint_size_bytes": 64 * 1024},
            clustering=ClusteringSpec(method="topology"),
        ),
        network=NetworkSpec(topology=topology),
        fault_model=fault_model,
        config={"raise_on_incomplete": False},
    )

    # The trace is drawn ahead of simulation, purely from spec content.
    trace = generate_trace(
        fault_model, NPROCS, build_topology(topology, NPROCS)
    )
    print(f"replica 0 draws {len(trace)} node failure(s):")
    for event in trace:
        print(f"  t={event.time * 1e3:8.4f} ms  ranks {list(event.ranks)}")
    # Keep the draw as an ordinary scenario: its failures list replays it.
    replay = dataclasses.replace(spec, fault_model=None, failures=tuple(trace))
    restored = ScenarioSpec.from_json(replay.to_json())
    print(f"replay spec JSON round-trip keeps its hash: "
          f"{restored.spec_hash() == replay.spec_hash()}")
    same = build(restored).run().makespan == build(spec).run().makespan
    print(f"replay reproduces the fault-model makespan: {same}")

    result = run_montecarlo(spec, replicas=REPLICAS)
    print()
    print(f"{result.completed_replicas}/{result.replicas} replicas completed; "
          "aggregate over completed replicas:")
    for path in ("sim.makespan", "sim.failures_injected", "sim.ranks_rolled_back"):
        mean = result.metric(f"faults.{path}.mean")
        std = result.metric(f"faults.{path}.std")
        ci95 = result.metric(f"faults.{path}.ci95")
        print(f"  {path:24s} mean={mean:.6g}  std={std:.3g}  ci95=±{ci95:.3g}")


if __name__ == "__main__":
    main()
