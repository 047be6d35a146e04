"""Global coordinated checkpointing (Chandy-Lamport style, blocking variant).

The classic small-scale solution discussed in Sections II and VI of the
paper: all ranks form a single cluster, checkpoints are globally coordinated,
and *every* rank rolls back to the last global checkpoint when any rank
fails.  Failure-free overhead is essentially the checkpoint I/O; the failure
cost is a full-application rollback, which is exactly the scalability problem
hybrid protocols address.

Implementation: a thin specialisation of
:class:`repro.ftprotocols.base.ClusteredProtocolBase` with a single cluster
containing every rank and no logging/piggybacking at all.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.ftprotocols.base import ClusteredProtocolBase
from repro.simulator.protocol_api import add_metric


class CoordinatedCheckpointProtocol(ClusteredProtocolBase):
    """Single-cluster coordinated checkpointing with global rollback."""

    name = "coordinated-checkpointing"

    def __init__(
        self,
        checkpoint_interval: Optional[int] = None,
        checkpoint_size_bytes: int = 16 * 1024 * 1024,
    ) -> None:
        super().__init__(
            clusters=None,
            checkpoint_interval=checkpoint_interval,
            checkpoint_size_bytes=checkpoint_size_bytes,
        )
        self.rollback_events: list[Dict[str, Any]] = []

    def on_failure(self, failed_ranks: Iterable[int], time: float) -> None:
        """Any failure rolls the whole application back to the last global
        checkpoint (or to the initial state when none exists)."""
        info = self.rollback_clusters([0])
        self.pstats.recoveries += 1
        self.rollback_events.append(
            {
                "time": time,
                "failed_ranks": sorted(failed_ranks),
                "ranks_rolled_back": len(info.ranks),
                "restore_iteration": info.restore_iterations.get(0, 0),
            }
        )

    def extra_metrics(self) -> Dict[str, Any]:
        info = super().extra_metrics()
        add_metric(info, "rollback_events", list(self.rollback_events))
        return info
