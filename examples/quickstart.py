#!/usr/bin/env python3
"""Quickstart: run a stencil application under HydEE and survive a failure.

The script

1. declares the failure-free reference and the failure run as
   :class:`ScenarioSpec` objects (the same declarative layer every
   experiment and campaign uses),
2. runs the reference through the campaign runner,
3. builds the HydEE scenario (four clusters, coordinated checkpoints every
   two iterations, a fail-stop failure of rank 5) and runs it,
4. shows that only rank 5's cluster rolled back and that the recovered
   execution produced exactly the reference results.
"""

from repro.campaign import run_campaign
from repro.core.invariants import check_all_recovery_invariants
from repro.scenarios import (
    ClusteringSpec,
    FailureSpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
    build,
)

NPROCS = 16
ITERATIONS = 8
FAILED_RANK = 5


def main() -> None:
    workload = WorkloadSpec(kind="stencil2d", nprocs=NPROCS, iterations=ITERATIONS)
    # Per-event traces stay on: the invariant checks compare send sequences.
    config = {"record_trace_events": True}

    # 1. + 2. Failure-free reference (native MPI, no protocol).
    reference_spec = ScenarioSpec(
        name="quickstart:reference", workload=workload, config=config
    )
    reference = run_campaign([reference_spec], keep_artifacts=True).artifacts[0]
    print(f"reference run      : makespan = {reference.makespan * 1e3:.3f} ms")

    # 3. HydEE with four explicit clusters (a 4x4 grid split by rows; on
    #    larger/irregular applications use ClusteringSpec(method="partition")
    #    to run the communication-graph partitioner instead -- see
    #    examples/nas_failure_containment.py) and a failure of rank 5 after
    #    iteration 5.
    clusters = ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15))
    hydee_spec = ScenarioSpec(
        name="quickstart:hydee-failure",
        workload=workload,
        protocol=ProtocolSpec(
            name="hydee",
            options={"checkpoint_interval": 2, "checkpoint_size_bytes": 256 * 1024},
            clustering=ClusteringSpec(method="explicit", clusters=clusters),
        ),
        failures=(FailureSpec(ranks=(FAILED_RANK,), at_iteration=5),),
        config=config,
    )
    print(f"process clusters   : {[list(c) for c in clusters]}")

    # The invariant battery needs the protocol object, so build the
    # simulation from the spec directly instead of going through a campaign.
    sim = build(hydee_spec)
    recovered = sim.run()
    protocol = sim.protocol

    # 4. Report containment and correctness.
    stats = recovered.stats
    print(f"run with failure   : makespan = {recovered.makespan * 1e3:.3f} ms")
    print(
        f"failure containment: {stats.ranks_rolled_back}/{NPROCS} ranks rolled back "
        f"({100 * stats.rolled_back_fraction:.1f}% -- only rank {FAILED_RANK}'s cluster)"
    )
    print(
        f"logging            : {stats.logged_messages} messages "
        f"({100 * stats.logged_fraction_bytes:.1f}% of application bytes), "
        f"{protocol.pstats.replayed_messages} replayed during recovery, "
        f"{protocol.pstats.suppressed_orphans} orphan messages suppressed"
    )
    print(f"results identical  : {recovered.rank_results == reference.rank_results}")

    summary = check_all_recovery_invariants(
        reference, recovered, protocol, failed_ranks=[FAILED_RANK]
    )
    print(f"paper invariants   : all checks passed ({', '.join(summary)})")


if __name__ == "__main__":
    main()
