"""Native execution without fault tolerance (the MPICH2 baseline).

This protocol piggybacks nothing, logs nothing and never checkpoints; it is
the reference against which Figures 5 and 6 normalise HydEE's overhead.  A
failure is fatal: the protocol records the affected ranks and raises, because
a pure MPI application cannot survive a fail-stop failure.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

from repro.errors import ProtocolError
from repro.simulator.protocol_api import ProtocolHooks, add_metric


class NoFaultToleranceProtocol(ProtocolHooks):
    """No piggybacking, no logging, no checkpointing, no recovery."""

    name = "mpich2-native"

    def __init__(self) -> None:
        super().__init__()
        self.failed_ranks: list[int] = []

    def on_failure(self, failed_ranks: Iterable[int], time: float) -> None:
        self.failed_ranks.extend(sorted(failed_ranks))
        raise ProtocolError(
            f"rank(s) {sorted(failed_ranks)} failed at t={time:.6f}s and the application "
            "runs without fault tolerance; the execution cannot continue"
        )

    def extra_metrics(self) -> Dict[str, Any]:
        info = dict(super().extra_metrics())
        add_metric(info, "failed_ranks", list(self.failed_ranks))
        return info
