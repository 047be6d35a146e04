"""Unit tests for the communication graph, metrics and partitioners."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.clustering import (
    CommunicationGraph,
    block_partition,
    cluster_application,
    evaluate_clustering,
    greedy_agglomerative,
    partition,
    refine,
    rollback_fraction,
    sweep_cluster_counts,
    preset_cluster_count,
)
from repro.errors import ClusteringError
from repro.workloads import Stencil2DApplication


def two_blocks_matrix(n=8, heavy=1000.0, light=1.0):
    """Two groups of n/2 ranks with heavy intra-group and light inter-group traffic."""
    matrix = np.full((n, n), light)
    np.fill_diagonal(matrix, 0.0)
    half = n // 2
    matrix[:half, :half] = heavy
    matrix[half:, half:] = heavy
    np.fill_diagonal(matrix, 0.0)
    return matrix


def test_every_subpackage_imports_without_networkx():
    # setup.py declares numpy as the only runtime dependency: no package
    # may need networkx (or anything else undeclared) to import.
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if info.ispkg:\n"
        "        importlib.import_module(info.name)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestCommunicationGraph:
    def test_validation(self):
        with pytest.raises(ClusteringError):
            CommunicationGraph(volume=np.zeros((2, 3)))
        with pytest.raises(ClusteringError):
            CommunicationGraph(volume=-np.ones((2, 2)))

    def test_from_application_uses_analytic_matrix(self):
        app = Stencil2DApplication(nprocs=16, iterations=2)
        graph = CommunicationGraph.from_application(app)
        assert graph.nprocs == 16
        assert graph.total_bytes > 0

    def test_cut_bytes(self):
        graph = CommunicationGraph.from_matrix(two_blocks_matrix(4, heavy=10, light=1))
        clusters = [[0, 1], [2, 3]]
        # inter-group entries: 2x2 block in each direction at weight 1 -> 8.
        assert graph.cut_bytes(clusters) == pytest.approx(8.0)
        with pytest.raises(ClusteringError):
            graph.cut_bytes([[0, 1]])


class TestMetrics:
    def test_rollback_fraction_balanced(self):
        assert rollback_fraction([4, 4, 4, 4], 16) == pytest.approx(0.25)

    def test_rollback_fraction_unbalanced_is_larger(self):
        balanced = rollback_fraction([8, 8], 16)
        skewed = rollback_fraction([12, 4], 16)
        assert skewed > balanced

    def test_evaluate_clustering(self):
        graph = CommunicationGraph.from_matrix(two_blocks_matrix(8))
        metrics = evaluate_clustering(graph, [[0, 1, 2, 3], [4, 5, 6, 7]])
        assert metrics.num_clusters == 2
        assert metrics.rollback_fraction == pytest.approx(0.5)
        assert 0 < metrics.logged_fraction < 0.05  # only the light edges cross
        with pytest.raises(ClusteringError):
            evaluate_clustering(graph, [[0, 1], [2, 3]])  # not a partition


class TestPartitioners:
    def test_block_partition_sizes(self):
        clusters = block_partition(10, 3)
        assert [len(c) for c in clusters] == [4, 3, 3]
        assert sorted(r for c in clusters for r in c) == list(range(10))
        with pytest.raises(ClusteringError):
            block_partition(4, 9)

    def test_greedy_finds_natural_groups(self):
        matrix = two_blocks_matrix(8)
        clusters = greedy_agglomerative(matrix, 2)
        assert sorted(sorted(c) for c in clusters) == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_greedy_respects_requested_count(self):
        matrix = two_blocks_matrix(12)
        for k in (2, 3, 4, 6, 12):
            clusters = greedy_agglomerative(matrix, k)
            assert len(clusters) == k
            assert sorted(r for c in clusters for r in c) == list(range(12))

    def test_refine_reduces_or_keeps_cut(self):
        graph = CommunicationGraph.from_matrix(two_blocks_matrix(8))
        bad = [[0, 1, 2, 4], [3, 5, 6, 7]]  # 3 and 4 swapped across the natural cut
        refined = refine(graph, bad)
        assert graph.cut_bytes(refined) <= graph.cut_bytes(bad)

    def test_partition_returns_metrics_and_valid_partition(self):
        result = partition(two_blocks_matrix(8), 2, method="auto")
        assert result.metrics.num_clusters == 2
        assert sorted(r for c in result.clusters for r in c) == list(range(8))
        assert result.metrics.logged_fraction < 0.05

    def test_partition_invalid_method(self):
        with pytest.raises(ClusteringError):
            partition(two_blocks_matrix(4), 2, method="does-not-exist")

    def test_cluster_application_partitions_all_ranks(self):
        app = Stencil2DApplication(nprocs=16, iterations=2)
        clusters = cluster_application(app, num_clusters=4)
        assert sorted(r for c in clusters for r in c) == list(range(16))
        assert len(clusters) == 4

    def test_sweep_cluster_counts_monotone_rollback(self):
        results = sweep_cluster_counts(two_blocks_matrix(16), [2, 4, 8])
        rollbacks = [r.metrics.rollback_fraction for r in results]
        assert rollbacks == sorted(rollbacks, reverse=True)

    def test_preset_cluster_counts(self):
        assert preset_cluster_count("BT") == 5
        assert preset_cluster_count("ft") == 2
