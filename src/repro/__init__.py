"""Reproduction of *HydEE: Failure Containment without Event Logging for
Large Scale Send-Deterministic MPI Applications* (Guermouche, Ropars, Snir,
Cappello -- IPDPS 2012).

The package is organised in layers:

* :mod:`repro.simulator`   -- discrete-event MPI substrate (the MPICH2 +
  Myrinet stand-in),
* :mod:`repro.core`        -- the HydEE protocol itself (Algorithms 1-4),
* :mod:`repro.ftprotocols` -- baseline protocols (native, coordinated
  checkpointing, full message logging, hybrid with event logging),
* :mod:`repro.clustering`  -- the process-clustering tool ([28]),
* :mod:`repro.workloads`   -- NAS-like kernels, NetPIPE ping-pong, stencils,
* :mod:`repro.scenarios`   -- declarative scenario specs + build factory,
* :mod:`repro.campaign`    -- serial/parallel campaign runner + result store,
* :mod:`repro.analysis`    -- performance models and result assembly,
* :mod:`repro.experiments` -- one runnable harness per paper table/figure.

Quick start::

    from repro import Simulation, HydEEProtocol, HydEEConfig
    from repro.workloads import Stencil2DApplication
    from repro.clustering import cluster_application

    app = Stencil2DApplication(nprocs=16, iterations=8)
    clusters = cluster_application(app, num_clusters=4)
    protocol = HydEEProtocol(HydEEConfig(clusters=clusters, checkpoint_interval=2))
    result = Simulation(app, nprocs=16, protocol=protocol).run()
    print("\n".join(result.stats.summary_lines()))
"""

from repro.errors import (
    ClusteringError,
    ConfigurationError,
    DeadlockError,
    InvariantViolation,
    ProtocolError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.simulator import Simulation, SimulationConfig, SimulationResult
from repro.core import HydEEConfig, HydEEProtocol
from repro.ftprotocols import (
    CoordinatedCheckpointProtocol,
    FullMessageLoggingProtocol,
    HybridEventLoggingProtocol,
    NoFaultToleranceProtocol,
    available_protocols,
    make_protocol,
)
from repro.scenarios import (
    ClusteringSpec,
    FailureSpec,
    NetworkSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build_scenario,
    sweep,
)
from repro.topology import Link, Topology
from repro.campaign import CampaignResult, ResultsStore, run_campaign

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SimulationError",
    "DeadlockError",
    "ProtocolError",
    "InvariantViolation",
    "ClusteringError",
    "WorkloadError",
    "ConfigurationError",
    # simulation
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    # protocols
    "HydEEConfig",
    "HydEEProtocol",
    "NoFaultToleranceProtocol",
    "CoordinatedCheckpointProtocol",
    "FullMessageLoggingProtocol",
    "HybridEventLoggingProtocol",
    "available_protocols",
    "make_protocol",
    # scenarios + campaigns
    "ScenarioSpec",
    "WorkloadSpec",
    "ProtocolSpec",
    "ClusteringSpec",
    "NetworkSpec",
    "TopologySpec",
    "FailureSpec",
    "Topology",
    "Link",
    "build_scenario",
    "sweep",
    "run_campaign",
    "CampaignResult",
    "ResultsStore",
]
