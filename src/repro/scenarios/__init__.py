"""Declarative scenario layer: specs, the build factory, and sweeps.

Every experiment, benchmark and example declares its runs as
:class:`ScenarioSpec` objects and hands them to the campaign runner
(:mod:`repro.campaign`) instead of wiring :class:`Simulation` objects by
hand.  Quick use::

    from repro.scenarios import ScenarioSpec, WorkloadSpec, ProtocolSpec, build

    spec = ScenarioSpec(
        name="demo",
        workload=WorkloadSpec(kind="stencil2d", nprocs=16, iterations=8),
        protocol=ProtocolSpec(name="hydee", options={"checkpoint_interval": 2}),
    )
    result = build(spec).run()
"""

from repro.faults.spec import FaultModelSpec
from repro.simulator.failures import FailureEvent
from repro.scenarios.spec import (
    ClusteringSpec,
    NetworkSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    load_specs,
)
from repro.scenarios.build import (
    NETWORK_MODELS,
    WORKLOAD_FACTORIES,
    available_networks,
    available_workloads,
    build,
    build_application,
    build_config,
    build_failures,
    build_network,
    build_protocol,
    build_topology,
    resolve_clusters,
)
from repro.scenarios.sweep import sweep, with_path

#: alias with an unambiguous name for top-level re-export.
build_scenario = build

__all__ = [
    "build_scenario",
    "ScenarioSpec",
    "WorkloadSpec",
    "ProtocolSpec",
    "ClusteringSpec",
    "NetworkSpec",
    "TopologySpec",
    "FailureEvent",
    "FaultModelSpec",
    "load_specs",
    "build",
    "build_topology",
    "build_application",
    "build_protocol",
    "build_network",
    "build_failures",
    "build_config",
    "resolve_clusters",
    "available_workloads",
    "available_networks",
    "WORKLOAD_FACTORIES",
    "NETWORK_MODELS",
    "sweep",
    "with_path",
]
