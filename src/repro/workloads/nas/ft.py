"""Synthetic NAS FT (3-D FFT) communication kernel.

Each FT iteration transposes the distributed 3-D array, which is a global
all-to-all: every process sends a block to every other process.  This is the
pattern that defeats clustering -- with any bisection half of the traffic
crosses the cut, which is why Table I reports 2 clusters, 50 % of processes
to roll back and ~50 % of the data logged.  Class D on 256 processes moves
~860 GB over 25 iterations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Tuple

from repro.workloads.base import round9
from repro.workloads.nas.base import NASKernelBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class FTApplication(NASKernelBase):
    """All-to-all transpose every iteration (pairwise exchange collective)."""

    name = "ft"
    full_run_iterations = 25
    default_compute_seconds = 20.0e-3
    #: bytes of each all-to-all block (calibrated for the class D volume).
    block_bytes = 525_000

    def sends(self, rank: int) -> List[Tuple[int, int]]:
        return [
            (peer, self.block_bytes) for peer in range(self.nprocs) if peer != rank
        ]

    def iteration(self, comm, rank: int, state: Dict[str, Any], it: int) -> Iterator:
        blocks = [
            self.payload(rank, dest, it) if dest != rank else 0.0
            for dest in range(self.nprocs)
        ]
        received = yield from comm.alltoall(blocks, size_bytes=self._scaled(self.block_bytes))
        acc = float(sum(v for v in received if isinstance(v, float)))
        state["received"] += self.nprocs - 1
        yield from comm.compute(self.compute_seconds)
        state["checksum"] = round9(0.5 * state["checksum"] + 1e-3 * acc)

    def fast_forward_states(
        self, states: Dict[int, Dict[str, Any]], start_iteration: int, n: int
    ) -> bool:
        """Batched all-to-all transpose.

        Mirrors :meth:`iteration` exactly: the received list is ordered by
        source rank with the rank's own 0.0 block at its own index, and the
        accumulator is ``float(sum(...))`` over that sequence -- the same
        float additions in the same order as the exchanged execution.
        """
        if set(states) != set(range(self.nprocs)):
            return False
        nprocs = self.nprocs
        payload = self.payload
        for it in range(start_iteration, start_iteration + n):
            for rank, state in states.items():
                acc = float(sum(
                    payload(source, rank, it) if source != rank else 0.0
                    for source in range(nprocs)
                ))
                state["received"] += nprocs - 1
                state["checksum"] = round9(0.5 * state["checksum"] + 1e-3 * acc)
        return True

    def communication_matrix(self, weight: str = "bytes") -> np.ndarray:
        import numpy as np

        per_message = self._scaled(self.block_bytes) if weight == "bytes" else 1
        matrix = np.full((self.nprocs, self.nprocs), float(per_message * self.iterations))
        np.fill_diagonal(matrix, 0.0)
        return matrix
