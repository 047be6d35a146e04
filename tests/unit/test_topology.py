"""Unit tests for the topology layer: routing, contention, placement, facade."""

import pytest

from repro.errors import ClusteringError, ConfigurationError
from repro.clustering.placement import (
    aligned_clusters,
    misaligned_clusters,
    placement_alignment,
)
from repro.simulator.network import MyrinetMXModel, RoutedNetworkModel
from repro.topology import (
    TIER_INTER_CLUSTER,
    TIER_INTRA_CLUSTER,
    TIER_NODE_LOCAL,
    ContentionModel,
    Link,
    Topology,
    available_presets,
    build_topology,
    flat_topology,
    hierarchical_topology,
)


def _two_cluster_topology():
    """16 ranks, 4 per node, 2 nodes per cluster -> 2 physical clusters."""
    return hierarchical_topology(16, ranks_per_node=4, nodes_per_cluster=2)


class TestTopologyLayout:
    def test_rank_placement(self):
        topo = _two_cluster_topology()
        assert topo.nprocs == 16
        assert topo.num_nodes == 4
        assert topo.num_clusters == 2
        assert topo.node_of_rank[0] == topo.node_of_rank[3] == 0
        assert topo.cluster_of_rank(0) == 0
        assert topo.cluster_of_rank(15) == 1
        assert topo.ranks_by_cluster() == [list(range(8)), list(range(8, 16))]

    def test_partial_last_node(self):
        topo = hierarchical_topology(10, ranks_per_node=4, nodes_per_cluster=2)
        assert topo.num_nodes == 3
        assert topo.ranks_by_node()[2] == [8, 9]

    def test_flat_topology_has_no_links(self):
        topo = flat_topology(8)
        assert not topo.has_shared_links
        assert topo.route(0, 7) == ()
        assert topo.route(3, 3) == ()

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ConfigurationError):
            flat_topology(0)
        with pytest.raises(ConfigurationError):
            hierarchical_topology(8, ranks_per_node=0)
        with pytest.raises(ConfigurationError):
            Link("l", "no-such-tier", 1e-6, 1e9)
        with pytest.raises(ConfigurationError):
            Link("l", TIER_INTER_CLUSTER, 1e-6, 1e9, oversubscription=0.5)

    def test_partial_link_families_rejected_at_construction(self):
        # Routing indexes link families by node/cluster id; an incomplete
        # family must fail at build time, not as an IndexError mid-run.
        local = Link("n0:local", TIER_NODE_LOCAL, 1e-6, 1e9)
        with pytest.raises(ConfigurationError):
            Topology(
                name="partial",
                node_of_rank=[0, 0, 1, 1],
                cluster_of_node=[0, 0],
                node_local=[local],  # one local link for two nodes, no up/down
            )


class TestRouting:
    def test_same_node_uses_local_link(self):
        topo = _two_cluster_topology()
        path = topo.route(0, 3)
        assert [link.tier for link in path] == [TIER_NODE_LOCAL]

    def test_same_cluster_uses_node_up_down(self):
        topo = _two_cluster_topology()
        path = topo.route(0, 4)  # node 0 -> node 1, same cluster
        assert [link.tier for link in path] == [TIER_INTRA_CLUSTER] * 2
        assert path[0].name == "node0:up"
        assert path[1].name == "node1:down"

    def test_inter_cluster_path_crosses_fabric(self):
        topo = _two_cluster_topology()
        path = topo.route(0, 15)
        assert [link.tier for link in path] == [
            TIER_INTRA_CLUSTER,
            TIER_INTER_CLUSTER,
            TIER_INTER_CLUSTER,
            TIER_INTRA_CLUSTER,
        ]

    def test_routes_are_cached_and_directional(self):
        topo = _two_cluster_topology()
        assert topo.route(0, 15) is topo.route(0, 15)
        forward = [link.name for link in topo.route(0, 15)]
        backward = [link.name for link in topo.route(15, 0)]
        assert forward != backward

    def test_oversubscription_divides_effective_bandwidth(self):
        topo = hierarchical_topology(
            8, ranks_per_node=2, nodes_per_cluster=2, oversubscription=4.0
        )
        inter = topo.route(0, 7)[1]
        assert inter.tier == TIER_INTER_CLUSTER
        assert inter.effective_bandwidth_bytes_per_s == pytest.approx(
            inter.bandwidth_bytes_per_s / 4.0
        )


class TestContentionModel:
    def _link(self, name="l0", bw=1e9, latency=1e-6, oversub=1.0):
        return Link(name, TIER_INTER_CLUSTER, latency, bw, oversub)

    def test_uncontended_transfer(self):
        model = ContentionModel()
        link = self._link()
        finish, waited = model.reserve([link], 1000, start=0.0)
        assert waited == 0.0
        assert finish == pytest.approx(1000 / 1e9 + 1e-6)

    def test_concurrent_transfers_serialize_fifo(self):
        model = ContentionModel()
        link = self._link()
        finish1, wait1 = model.reserve([link], 1000, start=0.0)
        finish2, wait2 = model.reserve([link], 1000, start=0.0)
        assert wait1 == 0.0
        assert wait2 == pytest.approx(1000 / 1e9)
        assert finish2 == pytest.approx(finish1 + 1000 / 1e9)

    def test_disjoint_links_do_not_contend(self):
        model = ContentionModel()
        a, b = self._link("a"), self._link("b")
        _, wait_a = model.reserve([a], 1000, start=0.0)
        _, wait_b = model.reserve([b], 1000, start=0.0)
        assert wait_a == wait_b == 0.0

    def test_reservation_is_deterministic(self):
        def run():
            model = ContentionModel()
            link = self._link(oversub=3.0)
            return [model.reserve([link], 512 * (i + 1), start=0.0) for i in range(10)]

        assert run() == run()

    def test_usage_counters_and_reset(self):
        model = ContentionModel()
        link = self._link()
        model.reserve([link], 1000, start=0.0)
        model.reserve([link], 1000, start=0.0)
        stats = model.link_stats(makespan=1.0)
        assert stats["l0"]["messages"] == 2
        assert stats["l0"]["bytes"] == 2000
        assert stats["l0"]["utilization"] == pytest.approx(2e-6)
        tiers = model.tier_stats()
        assert tiers[TIER_INTER_CLUSTER]["messages"] == 2
        model.reset()
        assert model.link_stats() == {}
        assert model.total_wait_s == 0.0


class TestRoutedNetworkModel:
    def test_flat_topology_matches_base_model_exactly(self):
        base = MyrinetMXModel()
        routed = RoutedNetworkModel(base, flat_topology(4))
        for wire in (1, 64, 1024, 65536, 1 << 20):
            arrival, waited = routed.routed_arrival(0, 3, wire, 5.0, ContentionModel())
            assert arrival == 5.0 + base.transfer_time(wire)
            assert waited == 0.0

    def test_delegates_base_model_interface(self):
        base = MyrinetMXModel()
        routed = RoutedNetworkModel(base, flat_topology(4))
        assert routed.send_overhead_s == base.send_overhead_s
        assert routed.latency(8) == base.latency(8)
        assert routed.memcpy_time(4096) == base.memcpy_time(4096)

    def test_endpoint_overheads_follow_later_base_changes(self):
        base = MyrinetMXModel()
        routed = RoutedNetworkModel(base, flat_topology(4))
        base.send_overhead_s = 3e-6
        base.recv_overhead_s = 4e-6
        assert routed.send_overhead_s == 3e-6
        assert routed.recv_overhead_s == 4e-6

    def test_contended_path_is_slower_than_flat(self):
        base = MyrinetMXModel()
        topo = hierarchical_topology(
            8, ranks_per_node=2, nodes_per_cluster=2, oversubscription=8.0
        )
        routed = RoutedNetworkModel(base, topo)
        flat_time = base.transfer_time(1 << 20)
        arrival, _ = routed.routed_arrival(0, 7, 1 << 20, 0.0, ContentionModel())
        assert arrival > flat_time

    def test_concurrent_inter_cluster_messages_queue(self):
        base = MyrinetMXModel()
        topo = hierarchical_topology(
            8, ranks_per_node=2, nodes_per_cluster=2, oversubscription=2.0
        )
        routed = RoutedNetworkModel(base, topo)
        # Two different senders in cluster 0 to cluster 1: they share the
        # cluster up/downlinks and must serialize there.
        contention = ContentionModel()
        _, wait_first = routed.routed_arrival(0, 6, 1 << 16, 0.0, contention)
        _, wait_second = routed.routed_arrival(2, 7, 1 << 16, 0.0, contention)
        assert wait_first == 0.0
        assert wait_second > 0.0

    def test_rejects_wrong_types(self):
        with pytest.raises(ConfigurationError):
            RoutedNetworkModel("not-a-model", flat_topology(2))
        with pytest.raises(ConfigurationError):
            RoutedNetworkModel(MyrinetMXModel(), "not-a-topology")

    def test_shared_model_keeps_transports_contention_independent(self):
        from repro.simulator.channel import Transport
        from repro.simulator.engine import SimulationEngine
        from repro.simulator.messages import Message

        topo = hierarchical_topology(
            8, ranks_per_node=2, nodes_per_cluster=2, oversubscription=8.0
        )
        shared = RoutedNetworkModel(MyrinetMXModel(), topo)

        # Two simulations over the SAME model instance, both constructed
        # before either runs: contention state must be per transport, not
        # per model, or the second run starts against the first's busy links.
        engines = [SimulationEngine(), SimulationEngine()]
        transports = [Transport(e, shared, lambda m: None) for e in engines]

        def arrivals(idx):
            times = [
                transports[idx].transmit(
                    Message(source=0, dest=7, tag=i, size_bytes=1 << 16)
                )
                for i in range(4)
            ]
            engines[idx].run()
            return times, transports[idx].contention_wait_s

        first = arrivals(0)
        second = arrivals(1)
        assert first == second
        assert first[1] > 0.0


class TestPresets:
    def test_available_presets(self):
        assert set(available_presets()) >= {
            "flat", "hierarchical", "fat-tree-2level", "cluster-per-node"
        }

    def test_cluster_per_node_makes_every_node_a_cluster(self):
        topo = build_topology("cluster-per-node", 12, ranks_per_node=3)
        assert topo.num_nodes == topo.num_clusters == 4

    def test_fat_tree_defaults(self):
        topo = build_topology("fat-tree-2level", 32)
        assert topo.num_nodes == 8
        assert topo.num_clusters == 2
        inter = topo.route(0, 31)[1]
        assert inter.oversubscription == 2.0

    def test_unknown_preset_and_bad_params_rejected(self):
        with pytest.raises(ConfigurationError):
            build_topology("torus-9d", 8)
        with pytest.raises(ConfigurationError):
            build_topology("flat", 8, ranks_per_node=2)
        with pytest.raises(ConfigurationError):
            build_topology("hierarchical", 8, no_such_param=1)
        with pytest.raises(ConfigurationError):
            # cluster-per-node fixes nodes_per_cluster=1; silently ignoring
            # an explicit value would waste sweep grid points.
            build_topology("cluster-per-node", 8, nodes_per_cluster=4)


class TestPlacement:
    def test_aligned_clusters_follow_physical_clusters(self):
        topo = _two_cluster_topology()
        assert aligned_clusters(topo) == [list(range(8)), list(range(8, 16))]
        by_node = aligned_clusters(topo, granularity="node")
        assert len(by_node) == 4
        assert by_node[0] == [0, 1, 2, 3]

    def test_misaligned_clusters_straddle_physical_clusters(self):
        topo = _two_cluster_topology()
        clusters = misaligned_clusters(topo)
        assert len(clusters) == topo.num_clusters
        assert sorted(r for c in clusters for r in c) == list(range(16))
        # Every protocol cluster contains ranks from both physical clusters.
        for cluster in clusters:
            assert {topo.cluster_of_rank(r) for r in cluster} == {0, 1}

    def test_alignment_score(self):
        topo = _two_cluster_topology()
        assert placement_alignment(aligned_clusters(topo), topo) == 1.0
        assert placement_alignment(misaligned_clusters(topo), topo) < 0.5
        assert placement_alignment([[0], [1]], topo) == 1.0

    def test_invalid_placement_arguments(self):
        topo = _two_cluster_topology()
        with pytest.raises(ClusteringError):
            aligned_clusters(topo, granularity="rack")
        with pytest.raises(ClusteringError):
            misaligned_clusters(topo, num_clusters=0)
