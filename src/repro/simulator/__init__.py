"""Discrete-event MPI simulation substrate.

This subpackage is the stand-in for the MPICH2/nemesis + Myrinet MX stack the
paper's prototype was built on.  It provides:

* a deterministic discrete-event engine (:mod:`repro.simulator.engine`),
* an MPI-like communication API with blocking and non-blocking point-to-point
  operations and collectives built over point-to-point
  (:mod:`repro.simulator.communicator`, :mod:`repro.simulator.collectives`),
* reliable FIFO channels with an analytic network performance model
  (:mod:`repro.simulator.channel`, :mod:`repro.simulator.network`),
* fail-stop failure injection (:mod:`repro.simulator.failures`),
* simulated stable storage for checkpoints
  (:mod:`repro.simulator.stable_storage`),
* event tracing and communication accounting (:mod:`repro.simulator.trace`).

Applications are written as Python generators; blocking operations are
expressed with ``yield`` / ``yield from`` so that the engine can interleave
ranks deterministically (see :mod:`repro.workloads.base`).
"""

from repro.simulator.engine import SimulationEngine
from repro.simulator.messages import Message, ANY_SOURCE, ANY_TAG
from repro.simulator.network import (
    NetworkModel,
    MyrinetMXModel,
    EthernetTCPModel,
    PiggybackPolicy,
    RoutedNetworkModel,
)
from repro.simulator.requests import Request, RequestState
from repro.simulator.process import RankProcess, RankState
from repro.simulator.communicator import Communicator
from repro.simulator.failures import FailureEvent, FailureInjector
from repro.simulator.stable_storage import StableStorage, CheckpointRecord
from repro.simulator.trace import TraceRecorder, CommunicationRecord
from repro.simulator.simulation import Simulation, SimulationConfig, SimulationResult

__all__ = [
    "SimulationEngine",
    "Message",
    "ANY_SOURCE",
    "ANY_TAG",
    "NetworkModel",
    "MyrinetMXModel",
    "EthernetTCPModel",
    "PiggybackPolicy",
    "RoutedNetworkModel",
    "Request",
    "RequestState",
    "RankProcess",
    "RankState",
    "Communicator",
    "FailureEvent",
    "FailureInjector",
    "StableStorage",
    "CheckpointRecord",
    "TraceRecorder",
    "CommunicationRecord",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
]
