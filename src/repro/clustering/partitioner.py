"""Process-clustering algorithms (the tool of Ropars et al. [28]).

The goal is the trade-off described in Section V-B of the paper: split the
application's processes into clusters so that

* a single failure only rolls back a small fraction of the processes
  (favouring many small clusters), while
* the volume of inter-cluster traffic -- which HydEE has to log -- stays
  small (favouring few large clusters that capture the heavy channels).

Three partitioners are provided and composed by the high-level helpers:

``block_partition``
    contiguous equal blocks of ranks; a strong baseline for HPC codes whose
    heavy channels connect nearby ranks (stencils, multipartition sweeps).
``greedy_agglomerative``
    start from singleton clusters and repeatedly merge the pair of clusters
    exchanging the most data, subject to a balance cap; this mirrors the
    volume-driven agglomeration of the paper's tool.
``refine``
    Kernighan--Lin-style single-vertex moves that reduce the logged volume
    without violating the balance cap.

``cluster_application`` wraps these for the common
cases (Table I harness, examples, experiments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.clustering.comm_graph import CommunicationGraph
from repro.clustering.metrics import ClusteringMetrics, evaluate_clustering
from repro.errors import ClusteringError

Clusters = List[List[int]]


# --------------------------------------------------------------------------- helpers
def _as_graph(graph_or_matrix) -> CommunicationGraph:
    if isinstance(graph_or_matrix, CommunicationGraph):
        return graph_or_matrix
    return CommunicationGraph.from_matrix(graph_or_matrix)


def _validate_k(nprocs: int, num_clusters: int) -> None:
    if not (1 <= num_clusters <= nprocs):
        raise ClusteringError(
            f"number of clusters must be in [1, {nprocs}], got {num_clusters}"
        )


# --------------------------------------------------------------------------- block
def block_partition(nprocs: int, num_clusters: int) -> Clusters:
    """Split ranks into ``num_clusters`` contiguous, near-equal blocks."""
    _validate_k(nprocs, num_clusters)
    base = nprocs // num_clusters
    remainder = nprocs % num_clusters
    clusters: Clusters = []
    start = 0
    for cid in range(num_clusters):
        size = base + (1 if cid < remainder else 0)
        clusters.append(list(range(start, start + size)))
        start += size
    return clusters


# ------------------------------------------------------------------- agglomerative
def greedy_agglomerative(
    graph_or_matrix,
    num_clusters: int,
    balance_tolerance: float = 1.5,
) -> Clusters:
    """Merge the heaviest-communicating clusters until ``num_clusters`` remain.

    ``balance_tolerance`` caps cluster sizes at
    ``ceil(nprocs / num_clusters) * balance_tolerance``; the cap is relaxed
    progressively if no merge is possible under it.
    """
    import numpy as np

    graph = _as_graph(graph_or_matrix)
    nprocs = graph.nprocs
    _validate_k(nprocs, num_clusters)
    if num_clusters == nprocs:
        return [[r] for r in range(nprocs)]

    weights = graph.symmetric().astype(np.float64).copy()
    np.fill_diagonal(weights, 0.0)
    members: List[Optional[List[int]]] = [[r] for r in range(nprocs)]
    sizes = np.ones(nprocs, dtype=np.int64)
    alive = np.ones(nprocs, dtype=bool)
    target_size = math.ceil(nprocs / num_clusters)
    cap = max(2, int(target_size * balance_tolerance))
    remaining = nprocs

    while remaining > num_clusters:
        best_pair: Optional[Tuple[int, int]] = None
        best_weight = -1.0
        alive_idx = np.nonzero(alive)[0]
        sub = weights[np.ix_(alive_idx, alive_idx)]
        # Consider pairs in decreasing weight order until one fits the cap.
        order = np.argsort(sub, axis=None)[::-1]
        for flat in order:
            i_local, j_local = np.unravel_index(flat, sub.shape)
            if i_local >= j_local:
                continue
            weight = sub[i_local, j_local]
            i, j = int(alive_idx[i_local]), int(alive_idx[j_local])
            if sizes[i] + sizes[j] <= cap:
                best_pair = (i, j)
                best_weight = float(weight)
                break
        if best_pair is None:
            # No merge fits the balance cap: relax it.
            cap = int(cap * 1.3) + 1
            continue
        if best_weight <= 0.0:
            # Remaining clusters do not communicate: merge the two smallest.
            alive_sorted = sorted(alive_idx.tolist(), key=lambda c: sizes[c])
            best_pair = (alive_sorted[0], alive_sorted[1])
        i, j = best_pair
        members[i] = sorted(members[i] + members[j])  # type: ignore[operator]
        members[j] = None
        sizes[i] += sizes[j]
        alive[j] = False
        weights[i, :] += weights[j, :]
        weights[:, i] += weights[:, j]
        weights[i, i] = 0.0
        weights[j, :] = 0.0
        weights[:, j] = 0.0
        remaining -= 1

    return sorted(
        [sorted(m) for m in members if m is not None], key=lambda c: c[0]
    )


# ------------------------------------------------------------------------ refinement
def refine(
    graph_or_matrix,
    clusters: Sequence[Sequence[int]],
    max_passes: int = 4,
    balance_tolerance: float = 1.5,
) -> Clusters:
    """Kernighan--Lin-style refinement: greedily move single ranks to the
    cluster they communicate with the most, whenever that reduces the logged
    volume and respects the balance cap."""
    import numpy as np

    graph = _as_graph(graph_or_matrix)
    nprocs = graph.nprocs
    sym = graph.symmetric()
    assignment = np.full(nprocs, -1, dtype=np.int64)
    for cid, cluster in enumerate(clusters):
        for rank in cluster:
            assignment[rank] = cid
    if (assignment < 0).any():
        raise ClusteringError("refine: clusters do not cover every rank")
    num_clusters = len(clusters)
    sizes = np.bincount(assignment, minlength=num_clusters)
    cap = max(2, int(math.ceil(nprocs / num_clusters) * balance_tolerance))

    for _ in range(max_passes):
        moved = 0
        for rank in range(nprocs):
            current = assignment[rank]
            if sizes[current] <= 1:
                continue
            # Volume towards each cluster.
            towards = np.zeros(num_clusters)
            for peer in np.nonzero(sym[rank])[0]:
                towards[assignment[peer]] += sym[rank, peer]
            best = int(np.argmax(towards))
            if best == current:
                continue
            gain = towards[best] - towards[current]
            if gain > 0 and sizes[best] < cap:
                assignment[rank] = best
                sizes[current] -= 1
                sizes[best] += 1
                moved += 1
        if moved == 0:
            break

    refined: Clusters = [[] for _ in range(num_clusters)]
    for rank in range(nprocs):
        refined[assignment[rank]].append(rank)
    return sorted([sorted(c) for c in refined if c], key=lambda c: c[0])


# ------------------------------------------------------------------------- top level
@dataclass
class ClusteringResult:
    """A clustering together with its Table-I-style metrics."""

    clusters: Clusters
    metrics: ClusteringMetrics
    method: str


def partition(
    graph_or_matrix,
    num_clusters: int,
    method: str = "auto",
    balance_tolerance: float = 1.5,
) -> ClusteringResult:
    """Partition a communication graph into ``num_clusters`` clusters.

    ``method`` is one of ``"block"``, ``"greedy"``, ``"greedy+refine"`` or
    ``"auto"`` (try all and keep the one with the smallest logged volume).
    """
    graph = _as_graph(graph_or_matrix)
    _validate_k(graph.nprocs, num_clusters)
    candidates: List[ClusteringResult] = []

    def _add(name: str, clusters: Clusters) -> None:
        candidates.append(
            ClusteringResult(
                clusters=clusters, metrics=evaluate_clustering(graph, clusters), method=name
            )
        )

    if method in ("block", "auto"):
        _add("block", block_partition(graph.nprocs, num_clusters))
        _add(
            "block+refine",
            refine(graph, block_partition(graph.nprocs, num_clusters),
                   balance_tolerance=balance_tolerance),
        )
    if method in ("greedy", "greedy+refine", "auto"):
        greedy = greedy_agglomerative(graph, num_clusters, balance_tolerance=balance_tolerance)
        if method != "greedy":
            _add("greedy+refine", refine(graph, greedy, balance_tolerance=balance_tolerance))
        if method in ("greedy", "auto"):
            _add("greedy", greedy)
    if method == "auto" and balance_tolerance > 1.1:
        # Also consider a tightly balanced agglomeration: unbalanced clusters
        # reduce the logged volume but inflate the rollback fraction, which is
        # the other half of the paper's trade-off.
        tight = greedy_agglomerative(graph, num_clusters, balance_tolerance=1.1)
        _add("greedy-balanced", tight)
        _add("greedy-balanced+refine", refine(graph, tight, balance_tolerance=1.1))
    if not candidates:
        raise ClusteringError(f"unknown clustering method {method!r}")
    # Keep only candidates with the requested number of clusters.
    exact = [c for c in candidates if c.metrics.num_clusters == num_clusters]
    pool = exact or candidates
    # Pick the smallest logged volume; among near ties (within 15 %) prefer
    # the clustering with the smallest rollback fraction (better balanced).
    best_logged = min(c.metrics.logged_bytes for c in pool)
    tolerance_band = best_logged * 1.15 + 1.0
    near_best = [c for c in pool if c.metrics.logged_bytes <= tolerance_band]
    return min(near_best, key=lambda c: (c.metrics.rollback_fraction, c.metrics.logged_bytes))


def cluster_application(
    application,
    num_clusters: int,
    method: str = "auto",
    balance_tolerance: float = 1.5,
) -> Clusters:
    """Convenience wrapper: cluster a workload from its analytic matrix."""
    graph = CommunicationGraph.from_application(application)
    return partition(graph, num_clusters, method=method,
                     balance_tolerance=balance_tolerance).clusters


def sweep_cluster_counts(
    graph_or_matrix,
    counts: Sequence[int],
    method: str = "auto",
) -> List[ClusteringResult]:
    """Evaluate a range of cluster counts (the rollback/logging frontier)."""
    graph = _as_graph(graph_or_matrix)
    return [partition(graph, k, method=method) for k in counts]
