"""Topology-aware protocol-cluster placement.

The partitioners in :mod:`repro.clustering.partitioner` cut the *logical*
communication graph; this module places protocol clusters relative to the
*physical* :class:`~repro.topology.topology.Topology` instead:

* :func:`aligned_clusters` makes protocol clusters coincide with physical
  clusters, so HydEE's logged inter-cluster traffic is exactly
  the traffic that crosses the oversubscribed fabric -- the placement under
  which containment pays off during congested recovery;
* :func:`misaligned_clusters` deliberately deals ranks round-robin across
  protocol clusters so every protocol cluster straddles every physical
  cluster -- the adversarial placement used to quantify how much alignment
  matters;
* :func:`placement_alignment` scores any clustering against a topology
  (1.0 = perfectly aligned).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ClusteringError
from repro.topology.topology import Topology

Clusters = List[List[int]]


def aligned_clusters(topology: Topology) -> Clusters:
    """One protocol cluster per physical cluster."""
    clusters = [sorted(group) for group in topology.ranks_by_cluster() if group]
    if not clusters:
        raise ClusteringError("topology places no ranks")
    return clusters


def misaligned_clusters(
    topology: Topology, num_clusters: Optional[int] = None
) -> Clusters:
    """Deal ranks round-robin across ``num_clusters`` protocol clusters.

    With ``num_clusters`` defaulting to the physical cluster count, every
    protocol cluster contains one rank from each physical cluster (when the
    layout is regular), i.e. the placement that maximises the protocol's
    inter-physical-cluster logging traffic.
    """
    k = num_clusters if num_clusters is not None else topology.num_clusters
    if not (1 <= k <= topology.nprocs):
        raise ClusteringError(
            f"number of clusters must be in [1, {topology.nprocs}], got {k}"
        )
    clusters: Clusters = [[] for _ in range(k)]
    for rank in range(topology.nprocs):
        clusters[rank % k].append(rank)
    return clusters


def placement_alignment(
    clusters: Sequence[Sequence[int]], topology: Topology
) -> float:
    """Fraction of intra-protocol-cluster rank pairs that are physically
    co-located in the same physical cluster (1.0 = perfectly aligned)."""
    pairs = 0
    colocated = 0
    for cluster in clusters:
        members = list(cluster)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                pairs += 1
                if topology.cluster_of_rank(a) == topology.cluster_of_rank(b):
                    colocated += 1
    if pairs == 0:
        return 1.0
    return colocated / pairs
