#!/usr/bin/env python3
"""Multiple concurrent failures: two clusters fail at the same instant.

The paper proves (Section IV) that HydEE tolerates multiple concurrent
failures without any event logging.  This example declares one reference
scenario plus two failure scenarios (HydEE and global coordinated
checkpointing) that fail one rank in each of two different clusters
simultaneously, runs them as a single campaign, and checks that

* exactly the two affected clusters roll back under HydEE,
* logged inter-cluster messages are replayed to both clusters,
* the recovered execution matches the failure-free reference,
* the same scenario under global coordinated checkpointing rolls back every
  process (the containment HydEE avoids).
"""

from repro.campaign import run_campaign
from repro.scenarios import (
    ClusteringSpec,
    FailureSpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
)

NPROCS = 16
ITERATIONS = 8

#: Four clusters of four ranks (one process-grid row each); the
#: communication-graph partitioner (ClusteringSpec(method="partition")) is
#: demonstrated in examples/nas_failure_containment.py.
CLUSTERS = ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15))


def main() -> None:
    workload = WorkloadSpec(kind="stencil2d", nprocs=NPROCS, iterations=ITERATIONS)
    print(f"clusters: {[list(c) for c in CLUSTERS]}")

    # Pick one victim in two different clusters.
    victims = (CLUSTERS[0][0], CLUSTERS[-1][-1])
    print(f"concurrent failures injected on ranks {list(victims)}")
    failure = FailureSpec(ranks=victims, at_iteration=5)
    checkpointing = {"checkpoint_interval": 2, "checkpoint_size_bytes": 256 * 1024}

    specs = [
        ScenarioSpec(name="multi-failure:reference", workload=workload),
        ScenarioSpec(
            name="multi-failure:hydee",
            workload=workload,
            protocol=ProtocolSpec(
                name="hydee",
                options=checkpointing,
                clustering=ClusteringSpec(method="explicit", clusters=CLUSTERS),
            ),
            failures=(failure,),
        ),
        ScenarioSpec(
            name="multi-failure:coordinated",
            workload=workload,
            protocol=ProtocolSpec(name="coordinated", options=checkpointing),
            failures=(failure,),
        ),
    ]
    outcome = run_campaign(specs, keep_artifacts=True)
    reference, hydee, coordinated = outcome.artifacts

    replayed = hydee.metric("protocol.replayed_messages", 0)
    print(
        f"HydEE        : {hydee.stats.ranks_rolled_back}/{NPROCS} ranks rolled back, "
        f"{replayed} messages replayed, "
        f"results identical = {hydee.rank_results == reference.rank_results}"
    )
    print(
        f"coordinated  : {coordinated.stats.ranks_rolled_back}/{NPROCS} ranks rolled back, "
        f"results identical = {coordinated.rank_results == reference.rank_results}"
    )


if __name__ == "__main__":
    main()
