"""Build live simulations from declarative :class:`ScenarioSpec` objects.

This module is the single place where scenario names are resolved into
concrete objects: workload kinds into :class:`~repro.workloads.base.
Application` instances, protocol names into
:mod:`repro.ftprotocols.registry` factories, network model names into
:class:`~repro.simulator.network.NetworkModel` subclasses, clustering
methods into :mod:`repro.clustering` calls, and failure specs into a
:class:`~repro.simulator.failures.FailureInjector`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.clustering.comm_graph import CommunicationGraph
from repro.clustering.partitioner import block_partition, partition
from repro.clustering.placement import aligned_clusters, misaligned_clusters
from repro.clustering.presets import TABLE1_CLUSTER_COUNTS
from repro.errors import ConfigurationError
from repro.ftprotocols.registry import make_protocol
from repro.scenarios.spec import (
    ClusteringSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.simulator.failures import FailureInjector
from repro.simulator.network import (
    EthernetTCPModel,
    MyrinetMXModel,
    NetworkModel,
    RoutedNetworkModel,
)
from repro.simulator.protocol_api import ProtocolHooks
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.topology import Topology
from repro.topology import build_topology as _build_topology_preset
from repro.workloads import (
    MasterWorkerApplication,
    PingPongApplication,
    PipelineApplication,
    RingApplication,
    Stencil1DApplication,
    Stencil2DApplication,
)
from repro.workloads.nas import NAS_BENCHMARKS

#: workload kind -> factory(nprocs, iterations, **params).
WORKLOAD_FACTORIES: Dict[str, Callable[..., Any]] = {
    "netpipe": PingPongApplication,
    "ring": RingApplication,
    "pipeline": PipelineApplication,
    "stencil1d": Stencil1DApplication,
    "stencil2d": Stencil2DApplication,
    "master-worker": MasterWorkerApplication,
}
WORKLOAD_FACTORIES.update(NAS_BENCHMARKS)  # "bt", "cg", "ft", "lu", "mg", "sp"

#: network model name -> NetworkModel subclass.
NETWORK_MODELS: Dict[str, Callable[..., NetworkModel]] = {
    "base": NetworkModel,
    "myrinet-mx": MyrinetMXModel,
    "ethernet-tcp": EthernetTCPModel,
}

#: protocol names that run without any protocol hooks at all.
BARE_PROTOCOLS = ("none",)


def available_workloads() -> List[str]:
    return sorted(WORKLOAD_FACTORIES)


def available_networks() -> List[str]:
    return sorted(NETWORK_MODELS)


def build_application(spec: WorkloadSpec) -> Any:
    """Instantiate the workload described by ``spec``."""
    try:
        factory = WORKLOAD_FACTORIES[spec.kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload kind {spec.kind!r}; available: "
            f"{', '.join(available_workloads())}"
        ) from None
    return factory(nprocs=spec.nprocs, iterations=spec.iterations, **spec.params)


def build_topology(topology: Optional[TopologySpec], nprocs: int) -> Optional[Topology]:
    """Materialise a :class:`TopologySpec` for ``nprocs`` ranks (None -> None)."""
    if topology is None:
        return None
    return _build_topology_preset(topology.preset, nprocs, **topology.params)


def build_network(spec: ScenarioSpec) -> NetworkModel:
    try:
        model_cls = NETWORK_MODELS[spec.network.model]
    except KeyError:
        raise ConfigurationError(
            f"unknown network model {spec.network.model!r}; available: "
            f"{', '.join(available_networks())}"
        ) from None
    model = model_cls(**spec.network.overrides)
    topology = build_topology(spec.network.topology, spec.workload.nprocs)
    if topology is None:
        return model
    return RoutedNetworkModel(model, topology)


def resolve_clusters(
    clustering: ClusteringSpec,
    workload: WorkloadSpec,
    topology: Optional[TopologySpec] = None,
) -> Optional[List[List[int]]]:
    """Materialise the cluster partition a clustering spec describes.

    The ``topology*`` methods place protocol clusters relative to the
    scenario's physical topology and require a non-flat one; ``topology``
    is the scenario's ``network.topology`` spec, or an already-built
    :class:`~repro.topology.topology.Topology` to reuse.
    """
    if clustering.method == "none":
        return None
    if clustering.method == "explicit":
        return [list(c) for c in clustering.clusters]
    if clustering.method == "block":
        return block_partition(workload.nprocs, clustering.num_clusters)
    if clustering.method.startswith("topology"):
        if isinstance(topology, Topology):
            topo = topology
        else:
            topo = build_topology(topology, workload.nprocs)
        if topo is None or not topo.has_shared_links:
            raise ConfigurationError(
                f"clustering method {clustering.method!r} needs a non-flat "
                "network.topology in the scenario spec"
            )
        if clustering.method == "topology":
            return aligned_clusters(topo)
        return misaligned_clusters(topo, clustering.num_clusters)
    # Graph-partitioning methods need the workload's analytic matrix.
    app = build_application(workload)
    if clustering.matrix == "full":
        matrix = app.full_run_matrix()
    else:
        matrix = app.communication_matrix()
    graph = CommunicationGraph.from_matrix(matrix)
    if clustering.method == "preset":
        try:
            k = TABLE1_CLUSTER_COUNTS[workload.kind]
        except KeyError:
            raise ConfigurationError(
                f"clustering method 'preset' needs a NAS kernel workload "
                f"(one of {', '.join(sorted(TABLE1_CLUSTER_COUNTS))}), "
                f"got {workload.kind!r}"
            ) from None
    else:
        k = clustering.num_clusters
    k = min(k, workload.nprocs)
    return partition(
        graph, k, method="auto", balance_tolerance=clustering.balance_tolerance
    ).clusters


def build_protocol(
    spec: ScenarioSpec, topology: Optional[Topology] = None
) -> Optional[ProtocolHooks]:
    """Instantiate the protocol described by ``spec`` (None for a bare run).

    ``topology`` optionally passes an already-built physical topology so
    topology-aware clustering reuses it instead of rebuilding from the spec.
    """
    name = spec.protocol.name
    if name in BARE_PROTOCOLS:
        return None
    options = dict(spec.protocol.options)
    clusters = resolve_clusters(
        spec.protocol.clustering,
        spec.workload,
        topology=topology if topology is not None else spec.network.topology,
    )
    if clusters is not None:
        options["clusters"] = clusters
    return make_protocol(name, **options)


def build_failures(
    spec: ScenarioSpec, topology: Optional[Topology] = None
) -> Optional[FailureInjector]:
    """Materialise the spec's failure source into an injector.

    Explicit ``failures`` are handed to the injector as they stand (no run
    writes to them); a ``fault_model`` draws its
    :class:`~repro.faults.trace.FailureTrace` -- failure events like any
    explicit list -- here, ahead of simulation
    (``topology`` optionally passes the scenario's already-built physical
    topology so node/cluster fault scopes reuse it).  A fault
    model always gets an injector -- even for a replica whose draw came up
    empty -- so every Monte Carlo replica publishes the same metric paths.
    """
    if spec.fault_model is not None:
        from repro.faults.trace import generate_trace

        if not isinstance(topology, Topology):
            topology = build_topology(spec.network.topology, spec.workload.nprocs)
        return FailureInjector(
            generate_trace(spec.fault_model, spec.workload.nprocs, topology)
        )
    if not spec.failures:
        return None
    return FailureInjector(spec.failures)


def build_config(spec: ScenarioSpec) -> SimulationConfig:
    overrides = dict(spec.config)
    # Campaign scenarios default to the slim trace path; per-event records
    # must be opted into explicitly (containment / invariant scenarios).
    overrides.setdefault("record_trace_events", False)
    derived = {"network", "execution", "calibration_key"}
    unknown = set(overrides) - (set(SimulationConfig.__dataclass_fields__) - derived)
    if unknown:
        raise ConfigurationError(
            f"unknown SimulationConfig overrides: {sorted(unknown)} (the network "
            "is set through NetworkSpec, the execution mode through "
            "ScenarioSpec.execution and the calibration key from the spec, "
            "not through config overrides)"
        )
    # Hybrid runs carry the spec's failure-free timing identity so the
    # director can look up the campaign's in-memory warm-up calibration
    # (repro.simulator.calibration); exact runs never consult it.
    return SimulationConfig(
        network=build_network(spec),
        execution=spec.execution,
        calibration_key=spec.calibration_key() if spec.execution == "hybrid" else None,
        **overrides,
    )


def build(spec: ScenarioSpec) -> Simulation:
    """Wire a :class:`Simulation` exactly as the spec declares it."""
    config = build_config(spec)
    network = config.network
    topology = network.topology if isinstance(network, RoutedNetworkModel) else None
    return Simulation(
        build_application(spec.workload),
        nprocs=spec.workload.nprocs,
        protocol=build_protocol(spec, topology=topology),
        failures=build_failures(spec, topology=topology),
        config=config,
    )
