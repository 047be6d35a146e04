#!/usr/bin/env python3
"""Run a NAS-like kernel under HydEE, fail a whole cluster, and recover.

This is the scenario the paper motivates: a large iterative HPC kernel (here
the CG communication pattern), process clustering computed from its
communication graph, coordinated checkpoints inside clusters, and a failure
that takes out several processes at once.  Only the affected cluster rolls
back; the messages it needs from other clusters are replayed from the
sender-based logs without any event logging.

Both runs are declared as scenario specs and executed as one campaign; the
cluster partition is computed up front (so the example can choose which
cluster to kill) and passed into the spec explicitly.
"""

import argparse

from repro.campaign import run_campaign
from repro.clustering import CommunicationGraph, evaluate_clustering, partition
from repro.scenarios import (
    ClusteringSpec,
    FailureEvent,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
    build_application,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="cg")
    parser.add_argument("--nprocs", type=int, default=16,
                        help="must be a perfect square for the NAS kernels")
    parser.add_argument("--iterations", type=int, default=6)
    parser.add_argument("--clusters", type=int, default=4)
    parser.add_argument("--fail-cluster", type=int, default=1,
                        help="index of the cluster whose members all fail")
    args = parser.parse_args()

    workload = WorkloadSpec(
        kind=args.benchmark.lower(), nprocs=args.nprocs, iterations=args.iterations
    )

    # Cluster from the analytic communication graph, so the example can pick
    # a whole cluster as the failure victim and report the expected trade-off.
    graph = CommunicationGraph.from_application(build_application(workload))
    clustering = partition(graph, args.clusters, method="auto", balance_tolerance=1.1)
    metrics = evaluate_clustering(graph, clustering.clusters)
    print(f"benchmark {args.benchmark.upper()} on {args.nprocs} ranks, "
          f"{args.clusters} clusters ({clustering.method})")
    print(f"  expected rollback for one failure : {100 * metrics.rollback_fraction:.1f}%")
    print(f"  volume to log (inter-cluster)     : {100 * metrics.logged_fraction:.1f}%")

    # Fail every rank of one cluster simultaneously (multiple concurrent
    # failures in the same cluster).
    victims = clustering.clusters[args.fail_cluster % len(clustering.clusters)]
    specs = [
        ScenarioSpec(name="nas-containment:reference", workload=workload),
        ScenarioSpec(
            name="nas-containment:hydee",
            workload=workload,
            protocol=ProtocolSpec(
                name="hydee",
                options={"checkpoint_interval": 2,
                         "checkpoint_size_bytes": 1024 * 1024},
                clustering=ClusteringSpec(
                    method="explicit",
                    clusters=tuple(tuple(c) for c in clustering.clusters),
                ),
            ),
            failures=(FailureEvent(ranks=tuple(victims), at_iteration=4),),
        ),
    ]
    outcome = run_campaign(specs, keep_artifacts=True)
    reference, recovered = outcome.artifacts

    print(f"  failed ranks                      : {sorted(victims)}")
    print(f"  ranks rolled back                 : {recovered.stats.ranks_rolled_back} "
          f"({100 * recovered.stats.rolled_back_fraction:.1f}%)")
    print(f"  messages replayed from logs       : "
          f"{recovered.metric('protocol.replayed_messages', 0)}")
    print(f"  orphan messages suppressed        : "
          f"{recovered.metric('protocol.suppressed_orphans', 0)}")
    print(f"  recovery time                     : {recovered.stats.recovery_time * 1e3:.2f} ms")
    print(f"  results identical to reference    : "
          f"{recovered.rank_results == reference.rank_results}")


if __name__ == "__main__":
    main()
