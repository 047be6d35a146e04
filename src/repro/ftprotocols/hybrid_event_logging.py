"""Hybrid cluster-based protocol *with* event logging.

This is the family of protocols HydEE is compared against in Section VI
([8] Bouteiller et al., [22] Meneses et al., [32] Yang et al.): coordinated
checkpointing inside clusters, sender-based logging of inter-cluster message
payloads between clusters -- exactly like HydEE -- but, because they assume
the piecewise-deterministic execution model instead of send-determinism, they
additionally have to log a determinant for **every** delivered message on
reliable storage.

For the failure-free comparison (which is what the paper evaluates) the only
behavioural difference with HydEE is therefore the determinant logging cost,
charged here on every delivery.  The recovery path reuses HydEE's machinery:
the set of processes that roll back and the set of messages replayed from the
logs are identical; the real protocols order redeliveries with the
determinants where HydEE uses phases, which is not observable for
send-deterministic workloads.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.protocol import HydEEProtocol
from repro.ftprotocols.base import DETERMINANT_BYTES, DETERMINANT_LATENCY_S
from repro.simulator.messages import Message
from repro.simulator.protocol_api import add_metric


class HybridEventLoggingProtocol(HydEEProtocol):
    """HydEE-style hybrid protocol plus reliable determinant logging."""

    name = "hybrid-event-logging"

    def on_app_deliver(self, rank: int, message: Message) -> float:
        overhead = super().on_app_deliver(rank, message)
        self.pstats.determinants_logged += 1
        self.pstats.determinant_bytes += DETERMINANT_BYTES
        return overhead + DETERMINANT_LATENCY_S

    def extra_metrics(self) -> Dict[str, Any]:
        info = super().extra_metrics()
        add_metric(info, "determinant_latency_s", DETERMINANT_LATENCY_S)
        return info
