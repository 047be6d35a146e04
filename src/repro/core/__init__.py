"""HydEE: the paper's hybrid rollback-recovery protocol.

The protocol combines coordinated checkpointing inside process clusters with
sender-based logging of inter-cluster message payloads, and uses logical
*dates* and *phases* instead of event logging to order message replay after a
failure (Algorithms 1-4 of the paper).

Public entry points:

* :class:`repro.core.protocol.HydEEProtocol` -- the protocol object to pass
  to :class:`repro.simulator.Simulation`, configured by keyword (clusters,
  checkpoint interval and size, piggyback size, log-everything);
* :mod:`repro.core.invariants` -- executable versions of the paper's lemmas
  and theorems, used by the test-suite and the recovery experiments.
"""

from repro.core.phase import PhaseClock
from repro.core.rpp import RPPTable
from repro.core.message_log import LogEntry, SenderLog
from repro.core.state import HydEERankState
from repro.core.recovery_process import RecoveryOrchestrator
from repro.core.protocol import HydEEProtocol

__all__ = [
    "PhaseClock",
    "RPPTable",
    "LogEntry",
    "SenderLog",
    "HydEERankState",
    "RecoveryOrchestrator",
    "HydEEProtocol",
]
