"""Process clustering substrate (the off-line tool of Ropars et al. [28])."""

from repro.clustering.comm_graph import CommunicationGraph
from repro.clustering.metrics import ClusteringMetrics, evaluate_clustering, rollback_fraction
from repro.clustering.partitioner import (
    ClusteringResult,
    block_partition,
    cluster_application,
    greedy_agglomerative,
    partition,
    refine,
    sweep_cluster_counts,
)
from repro.clustering.placement import (
    aligned_clusters,
    misaligned_clusters,
    placement_alignment,
)
from repro.clustering.presets import (
    FIGURE6_PAPER_OVERHEAD,
    TABLE1_CLUSTER_COUNTS,
    TABLE1_PAPER_VALUES,
    preset_cluster_count,
)

__all__ = [
    "CommunicationGraph",
    "ClusteringMetrics",
    "evaluate_clustering",
    "rollback_fraction",
    "ClusteringResult",
    "block_partition",
    "greedy_agglomerative",
    "refine",
    "partition",
    "cluster_application",
    "sweep_cluster_counts",
    "aligned_clusters",
    "misaligned_clusters",
    "placement_alignment",
    "TABLE1_CLUSTER_COUNTS",
    "TABLE1_PAPER_VALUES",
    "FIGURE6_PAPER_OVERHEAD",
    "preset_cluster_count",
]
