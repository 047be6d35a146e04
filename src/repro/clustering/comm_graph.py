"""Communication graph construction.

The clustering tool of Ropars et al. [28] -- used by the paper to produce the
configurations of Table I -- takes as input a graph whose vertices are the
application processes and whose edge weights are the volumes of data
exchanged on each channel.  The paper's authors instrumented MPICH2 to
collect those volumes; this module builds the same graph either

* analytically, from a workload's :meth:`communication_matrix` (fast path
  used by the Table I harness),
* or directly from a dense numpy matrix (e.g.
  :meth:`repro.simulator.trace.TraceRecorder.communication_matrix`, the
  instrumented-library equivalent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import ClusteringError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass
class CommunicationGraph:
    """Symmetric channel-volume graph over ``nprocs`` processes."""

    #: directed volume matrix in bytes; entry [i, j] = bytes sent from i to j.
    volume: np.ndarray
    #: optional directed message-count matrix.
    messages: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        import numpy as np

        self.volume = np.asarray(self.volume, dtype=np.float64)
        if self.volume.ndim != 2 or self.volume.shape[0] != self.volume.shape[1]:
            raise ClusteringError("communication matrix must be square")
        if (self.volume < 0).any():
            raise ClusteringError("communication volumes must be non-negative")
        if self.messages is not None:
            self.messages = np.asarray(self.messages, dtype=np.float64)
            if self.messages.shape != self.volume.shape:
                raise ClusteringError("message-count matrix shape mismatch")

    # ------------------------------------------------------------------ props
    @property
    def nprocs(self) -> int:
        return self.volume.shape[0]

    @property
    def total_bytes(self) -> float:
        return float(self.volume.sum())

    def symmetric(self) -> np.ndarray:
        """Undirected volume matrix (sum of both directions)."""
        return self.volume + self.volume.T

    # -------------------------------------------------------------- builders
    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "CommunicationGraph":
        return cls(volume=matrix)

    @classmethod
    def from_application(cls, application, weight: str = "bytes") -> "CommunicationGraph":
        """Build from a workload's analytic communication matrix."""
        matrix = application.communication_matrix(weight=weight)
        try:
            messages = application.communication_matrix(weight="messages")
        except NotImplementedError:  # pragma: no cover - optional
            messages = None
        return cls(volume=matrix, messages=messages)

    # ------------------------------------------------------------------ misc
    def cut_bytes(self, clusters: Iterable[Iterable[int]]) -> float:
        """Bytes crossing cluster boundaries (i.e. the logged volume)."""
        import numpy as np

        assignment = np.full(self.nprocs, -1, dtype=np.int64)
        for cid, members in enumerate(clusters):
            for rank in members:
                assignment[rank] = cid
        if (assignment < 0).any():
            raise ClusteringError("clusters do not cover every rank")
        mask = assignment[:, None] != assignment[None, :]
        return float(self.volume[mask].sum())
