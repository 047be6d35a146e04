"""Clustering quality metrics reported in Table I of the paper.

For a clustering of ``n`` processes into clusters of sizes ``s_1..s_k``:

* the **average ratio of processes to roll back for a single failure**
  (assuming failures uniformly distributed over processes) is
  ``sum(s_i^2) / n^2``: a failure hits cluster ``i`` with probability
  ``s_i / n`` and then rolls back ``s_i / n`` of the processes;
* the **logged fraction** is the inter-cluster volume divided by the total
  communication volume (only inter-cluster messages are logged by HydEE).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.clustering.comm_graph import CommunicationGraph
from repro.errors import ClusteringError


@dataclass
class ClusteringMetrics:
    """Quality figures for one clustering of one communication graph."""

    num_clusters: int
    cluster_sizes: List[int]
    rollback_fraction: float
    logged_bytes: float
    total_bytes: float

    @property
    def logged_fraction(self) -> float:
        if self.total_bytes <= 0:
            return 0.0
        return self.logged_bytes / self.total_bytes


def rollback_fraction(cluster_sizes: Sequence[int], nprocs: int) -> float:
    """Expected fraction of processes rolled back by a single uniform failure."""
    if nprocs <= 0:
        raise ClusteringError("nprocs must be positive")
    return float(sum(s * s for s in cluster_sizes)) / float(nprocs * nprocs)


def evaluate_clustering(
    graph: CommunicationGraph, clusters: Sequence[Sequence[int]]
) -> ClusteringMetrics:
    """Compute the Table I metrics of ``clusters`` on ``graph``."""
    sizes = [len(c) for c in clusters]
    covered = sorted(r for c in clusters for r in c)
    if covered != list(range(graph.nprocs)):
        raise ClusteringError(
            f"clustering does not partition 0..{graph.nprocs - 1} "
            f"(covered {len(covered)} ranks)"
        )
    logged = graph.cut_bytes(clusters)
    return ClusteringMetrics(
        num_clusters=len(clusters),
        cluster_sizes=sizes,
        rollback_fraction=rollback_fraction(sizes, graph.nprocs),
        logged_bytes=logged,
        total_bytes=graph.total_bytes,
    )
