"""Hierarchical interconnect topologies (ranks -> nodes -> clusters).

The paper's evaluation runs over a flat Myrinet 10G fabric where every rank
pair effectively owns a private link, so inter- and intra-cluster traffic
are physically indistinguishable.  Real machines are hierarchical: ranks
share a node, nodes share a cluster switch, and clusters share an
oversubscribed inter-cluster fabric.  This module describes that hierarchy
as plain data so the simulator can route each message over its link path
and charge deterministic per-link bandwidth sharing
(:mod:`repro.topology.contention`).

A :class:`Topology` maps every rank to a node and every node to a physical
cluster, and owns the directed :class:`Link` objects between them.  Routes
are fixed by the hierarchy:

* same rank            -- no links (loopback);
* same node            -- the node's local link (memory/NIC loopback);
* same cluster         -- source node uplink, destination node downlink;
* different clusters   -- node uplink, source cluster uplink, destination
  cluster downlink, node downlink.

The cluster up/downlinks carry the ``oversubscription`` factor: an
oversubscription of ``k`` divides the link's effective bandwidth by ``k``,
which is where inter-cluster congestion during recovery comes from.

The degenerate :func:`flat_topology` has no links at all, so routing over
it reproduces the flat point-to-point models exactly (every pair keeps its
private, uncontended channel).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: link tier names (coarse physical locality classes).
TIER_NODE_LOCAL = "node-local"
TIER_INTRA_CLUSTER = "intra-cluster"
TIER_INTER_CLUSTER = "inter-cluster"

LINK_TIERS = (TIER_NODE_LOCAL, TIER_INTRA_CLUSTER, TIER_INTER_CLUSTER)


@dataclass(frozen=True)
class Link:
    """One directed physical link with latency, bandwidth and oversubscription.

    ``oversubscription`` divides the nominal bandwidth: a factor of 4 means
    four endpoints' worth of traffic funnel through one link's capacity, the
    standard way fat-tree fabrics are thinned towards the core.
    """

    name: str
    tier: str
    latency_s: float
    bandwidth_bytes_per_s: float
    oversubscription: float = 1.0

    def __post_init__(self) -> None:
        if self.tier not in LINK_TIERS:
            raise ConfigurationError(
                f"unknown link tier {self.tier!r}; expected one of {LINK_TIERS}"
            )
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError(f"link {self.name}: bandwidth must be positive")
        if self.oversubscription < 1.0:
            raise ConfigurationError(
                f"link {self.name}: oversubscription must be >= 1 "
                f"(got {self.oversubscription})"
            )
        if self.latency_s < 0:
            raise ConfigurationError(f"link {self.name}: latency must be >= 0")

    @cached_property
    def effective_bandwidth_bytes_per_s(self) -> float:
        """Bandwidth actually available to one message (after oversubscription).

        Computed once per link: the contention model reads it for every link
        of every routed message."""
        return self.bandwidth_bytes_per_s / self.oversubscription


class Topology:
    """Rank placement plus the link hierarchy between nodes and clusters.

    ``node_of_rank[r]`` is the node hosting rank ``r``;
    ``cluster_of_node[n]`` is the physical cluster of node ``n``.  The five
    link families (node local/up/down, cluster up/down) are optional: a
    topology with no links routes every pair over a private channel (the
    flat degenerate case).
    """

    def __init__(
        self,
        name: str,
        node_of_rank: Sequence[int],
        cluster_of_node: Sequence[int],
        node_local: Optional[Sequence[Link]] = None,
        node_up: Optional[Sequence[Link]] = None,
        node_down: Optional[Sequence[Link]] = None,
        cluster_up: Optional[Sequence[Link]] = None,
        cluster_down: Optional[Sequence[Link]] = None,
    ) -> None:
        self.name = name
        self.node_of_rank: Tuple[int, ...] = tuple(int(n) for n in node_of_rank)
        self.cluster_of_node: Tuple[int, ...] = tuple(int(c) for c in cluster_of_node)
        if not self.node_of_rank:
            raise ConfigurationError("a topology needs at least one rank")
        num_nodes = max(self.node_of_rank) + 1
        if len(self.cluster_of_node) < num_nodes:
            raise ConfigurationError(
                f"cluster_of_node covers {len(self.cluster_of_node)} nodes, "
                f"but ranks are placed on {num_nodes}"
            )
        self._node_local = list(node_local or [])
        self._node_up = list(node_up or [])
        self._node_down = list(node_down or [])
        self._cluster_up = list(cluster_up or [])
        self._cluster_down = list(cluster_down or [])
        if any((self._node_local, self._node_up, self._node_down,
                self._cluster_up, self._cluster_down)):
            # Either no links at all (the flat degenerate case) or complete
            # families: routing indexes them by node/cluster id, so a partial
            # family would surface as an IndexError mid-simulation.
            num_clusters = max(self.cluster_of_node[:num_nodes]) + 1
            for family, links, needed in (
                ("node_local", self._node_local, num_nodes),
                ("node_up", self._node_up, num_nodes),
                ("node_down", self._node_down, num_nodes),
                ("cluster_up", self._cluster_up, num_clusters),
                ("cluster_down", self._cluster_down, num_clusters),
            ):
                if len(links) < needed:
                    raise ConfigurationError(
                        f"topology {name!r}: link family {family!r} has "
                        f"{len(links)} links but needs one per "
                        f"{'node' if 'node' in family else 'cluster'} ({needed})"
                    )
        #: every link by name (stable insertion order, for stats reporting).
        self.links: Dict[str, Link] = {}
        for group in (self._node_local, self._node_up, self._node_down,
                      self._cluster_up, self._cluster_down):
            for link in group:
                if link.name in self.links:
                    raise ConfigurationError(f"duplicate link name {link.name!r}")
                self.links[link.name] = link
        self._route_cache: Dict[Tuple[int, int], Tuple[Link, ...]] = {}

    # ---------------------------------------------------------------- layout
    @property
    def nprocs(self) -> int:
        return len(self.node_of_rank)

    @property
    def num_nodes(self) -> int:
        return max(self.node_of_rank) + 1

    @property
    def num_clusters(self) -> int:
        return max(self.cluster_of_node[: self.num_nodes]) + 1

    @property
    def has_shared_links(self) -> bool:
        """True when messages can contend (any link exists)."""
        return bool(self.links)

    def cluster_of_rank(self, rank: int) -> int:
        return self.cluster_of_node[self.node_of_rank[rank]]

    def ranks_by_node(self) -> List[List[int]]:
        nodes: List[List[int]] = [[] for _ in range(self.num_nodes)]
        for rank, node in enumerate(self.node_of_rank):
            nodes[node].append(rank)
        return nodes

    def ranks_by_cluster(self) -> List[List[int]]:
        clusters: List[List[int]] = [[] for _ in range(self.num_clusters)]
        for rank in range(self.nprocs):
            clusters[self.cluster_of_rank(rank)].append(rank)
        return clusters

    # --------------------------------------------------------------- routing
    def route(self, source: int, dest: int) -> Tuple[Link, ...]:
        """Ordered link path a message from ``source`` to ``dest`` occupies."""
        key = (source, dest)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        path = self._compute_route(source, dest)
        self._route_cache[key] = path
        return path

    def _compute_route(self, source: int, dest: int) -> Tuple[Link, ...]:
        if not self.links or source == dest:
            return ()
        node_s = self.node_of_rank[source]
        node_d = self.node_of_rank[dest]
        if node_s == node_d:
            return (self._node_local[node_s],)
        cluster_s = self.cluster_of_node[node_s]
        cluster_d = self.cluster_of_node[node_d]
        if cluster_s == cluster_d:
            return (self._node_up[node_s], self._node_down[node_d])
        return (
            self._node_up[node_s],
            self._cluster_up[cluster_s],
            self._cluster_down[cluster_d],
            self._node_down[node_d],
        )

    def describe(self) -> Dict[str, Any]:
        """Plain-data summary (carried into campaign records / stats)."""
        return {
            "name": self.name,
            "nprocs": self.nprocs,
            "nodes": self.num_nodes,
            "clusters": self.num_clusters,
            "links": len(self.links),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Topology({self.name!r}, nprocs={self.nprocs}, "
            f"nodes={self.num_nodes}, clusters={self.num_clusters}, "
            f"links={len(self.links)})"
        )


# ------------------------------------------------------------------ builders
def flat_topology(nprocs: int) -> Topology:
    """The degenerate single-tier topology: every pair owns a private link.

    Routing over it is a no-op, so a flat topology reproduces the flat
    point-to-point network models exactly.
    """
    if nprocs < 1:
        raise ConfigurationError("flat_topology needs nprocs >= 1")
    return Topology(
        name="flat",
        node_of_rank=range(nprocs),
        cluster_of_node=[0] * nprocs,
    )


def hierarchical_topology(
    nprocs: int,
    ranks_per_node: int = 4,
    nodes_per_cluster: int = 4,
    oversubscription: float = 1.0,
    node_local_latency_s: float = 0.3e-6,
    node_local_bandwidth_bytes_per_s: float = 6.0e9,
    intra_latency_s: float = 0.8e-6,
    intra_bandwidth_bytes_per_s: float = 1.2e9,
    inter_latency_s: float = 1.6e-6,
    inter_bandwidth_bytes_per_s: float = 1.2e9,
    name: str = "hierarchical",
) -> Topology:
    """Three-tier topology: ranks on nodes, nodes in clusters, shared fabric.

    ``oversubscription`` applies to the cluster up/downlinks (the
    inter-cluster fabric); node up/downlinks model the NIC into the cluster
    switch and the node-local link models shared-memory transfers.
    """
    if nprocs < 1:
        raise ConfigurationError("hierarchical_topology needs nprocs >= 1")
    if ranks_per_node < 1 or nodes_per_cluster < 1:
        raise ConfigurationError(
            "ranks_per_node and nodes_per_cluster must be >= 1 "
            f"(got {ranks_per_node}, {nodes_per_cluster})"
        )
    node_of_rank = [rank // ranks_per_node for rank in range(nprocs)]
    num_nodes = node_of_rank[-1] + 1
    cluster_of_node = [node // nodes_per_cluster for node in range(num_nodes)]
    num_clusters = cluster_of_node[-1] + 1

    node_local = [
        Link(f"node{n}:local", TIER_NODE_LOCAL,
             node_local_latency_s, node_local_bandwidth_bytes_per_s)
        for n in range(num_nodes)
    ]
    node_up = [
        Link(f"node{n}:up", TIER_INTRA_CLUSTER,
             intra_latency_s, intra_bandwidth_bytes_per_s)
        for n in range(num_nodes)
    ]
    node_down = [
        Link(f"node{n}:down", TIER_INTRA_CLUSTER,
             intra_latency_s, intra_bandwidth_bytes_per_s)
        for n in range(num_nodes)
    ]
    cluster_up = [
        Link(f"cluster{c}:up", TIER_INTER_CLUSTER,
             inter_latency_s, inter_bandwidth_bytes_per_s, oversubscription)
        for c in range(num_clusters)
    ]
    cluster_down = [
        Link(f"cluster{c}:down", TIER_INTER_CLUSTER,
             inter_latency_s, inter_bandwidth_bytes_per_s, oversubscription)
        for c in range(num_clusters)
    ]
    return Topology(
        name=name,
        node_of_rank=node_of_rank,
        cluster_of_node=cluster_of_node,
        node_local=node_local,
        node_up=node_up,
        node_down=node_down,
        cluster_up=cluster_up,
        cluster_down=cluster_down,
    )


def _fat_tree_2level(nprocs: int, **params: Any) -> Topology:
    params.setdefault("ranks_per_node", 4)
    params.setdefault("nodes_per_cluster", 4)
    params.setdefault("oversubscription", 2.0)
    return hierarchical_topology(nprocs, name="fat-tree-2level", **params)


def _cluster_per_node(nprocs: int, **params: Any) -> Topology:
    """Every node is its own physical cluster: all cross-node traffic rides
    the (oversubscribable) inter-cluster fabric."""
    if "nodes_per_cluster" in params:
        raise ConfigurationError(
            "the 'cluster-per-node' preset fixes nodes_per_cluster=1; "
            "use the 'hierarchical' preset to set it"
        )
    params.setdefault("ranks_per_node", 4)
    params.setdefault("oversubscription", 2.0)
    return hierarchical_topology(
        nprocs, nodes_per_cluster=1, name="cluster-per-node", **params
    )


def _flat(nprocs: int, **params: Any) -> Topology:
    if params:
        raise ConfigurationError(
            f"the 'flat' topology preset takes no parameters (got {sorted(params)})"
        )
    return flat_topology(nprocs)


#: preset name -> builder(nprocs, **params).
TOPOLOGY_PRESETS: Dict[str, Callable[..., Topology]] = {
    "flat": _flat,
    "hierarchical": hierarchical_topology,
    "fat-tree-2level": _fat_tree_2level,
    "cluster-per-node": _cluster_per_node,
}


def available_presets() -> List[str]:
    return sorted(TOPOLOGY_PRESETS)


def build_topology(preset: str, nprocs: int, **params: Any) -> Topology:
    """Instantiate a preset topology for ``nprocs`` ranks."""
    try:
        builder = TOPOLOGY_PRESETS[preset]
    except KeyError:
        raise ConfigurationError(
            f"unknown topology preset {preset!r}; available: "
            f"{', '.join(available_presets())}"
        ) from None
    try:
        return builder(nprocs, **params)
    except TypeError as exc:
        raise ConfigurationError(
            f"invalid parameters for topology preset {preset!r}: {exc}"
        ) from None
