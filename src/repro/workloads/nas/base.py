"""Common machinery for the synthetic NAS kernels.

The paper's evaluation uses six class D NAS Parallel Benchmarks on 256
processes (Table I and Figure 6).  What Table I and Figure 6 actually depend
on is each benchmark's *communication pattern* -- which ranks exchange how
many bytes per iteration -- and the ratio between communication and
computation, not the numerical kernels themselves.  Each synthetic kernel
therefore describes its per-iteration exchanges declaratively:

* :meth:`NASKernelBase.sends` returns, for a rank, the list of
  ``(peer, size_bytes)`` messages it sends every iteration;
* the base class derives the matching receive lists, drives the iteration
  (non-blocking exchange + ``waitall`` + local compute), maintains a
  deterministic per-rank checksum (used by the recovery-correctness tests)
  and provides the analytic communication matrix consumed by the clustering
  tool;
* message sizes are calibrated so that a full class D run (with the standard
  NPB iteration counts) moves a total volume comparable to the paper's
  Table I "total amount of data" column.

FT overrides the iteration entirely because its transpose is a genuine
all-to-all.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.workloads.base import Application, round9

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


def square_grid_side(nprocs: int) -> int:
    """Side of the square process grid; requires a perfect square."""
    side = int(round(math.sqrt(nprocs)))
    if side * side != nprocs:
        raise WorkloadError(
            f"this kernel needs a square number of processes, got {nprocs}"
        )
    return side


class NASKernelBase(Application):
    """Base class for the declarative exchange-pattern kernels."""

    name = "nas-kernel"
    #: NPB iteration count of the full class D run (used to scale volumes).
    full_run_iterations: int = 100
    #: default compute time per simulated iteration (seconds).
    default_compute_seconds: float = 2.0e-3
    #: tag used by the kernel's point-to-point exchanges.
    tag: int = 40

    def __init__(
        self,
        nprocs: int,
        iterations: int = 3,
        message_scale: float = 1.0,
        compute_seconds: Optional[float] = None,
    ) -> None:
        super().__init__(nprocs, iterations)
        self.message_scale = float(message_scale)
        self.compute_seconds = (
            self.default_compute_seconds if compute_seconds is None else float(compute_seconds)
        )
        self._send_map: Optional[Dict[int, List[Tuple[int, int]]]] = None
        self._recv_map: Optional[Dict[int, List[int]]] = None

    # ------------------------------------------------------------- pattern
    def sends(self, rank: int) -> List[Tuple[int, int]]:
        """(peer, size_bytes) messages sent by ``rank`` every iteration."""
        raise NotImplementedError

    def _scaled(self, nbytes: float) -> int:
        return max(1, int(nbytes * self.message_scale))

    def _build_maps(self) -> None:
        if self._send_map is not None:
            return
        send_map: Dict[int, List[Tuple[int, int]]] = {}
        recv_map: Dict[int, List[int]] = {rank: [] for rank in range(self.nprocs)}
        for rank in range(self.nprocs):
            entries = [(peer, self._scaled(size)) for peer, size in self.sends(rank)]
            for peer, _size in entries:
                if peer == rank or not (0 <= peer < self.nprocs):
                    raise WorkloadError(
                        f"{self.name}: rank {rank} declares an invalid peer {peer}"
                    )
            send_map[rank] = entries
            for peer, _size in entries:
                recv_map[peer].append(rank)
        self._send_map = send_map
        self._recv_map = recv_map

    def send_list(self, rank: int) -> List[Tuple[int, int]]:
        self._build_maps()
        assert self._send_map is not None
        return self._send_map[rank]

    def recv_list(self, rank: int) -> List[int]:
        self._build_maps()
        assert self._recv_map is not None
        return self._recv_map[rank]

    # ---------------------------------------------------------- application
    def setup(self, rank: int, nprocs: int) -> Dict[str, Any]:
        return {"checksum": float(rank + 1), "received": 0}

    def payload(self, rank: int, peer: int, iteration: int) -> float:
        """Deterministic payload so re-executions are comparable."""
        return round(math.sin(0.01 * (rank * 131 + peer * 17 + iteration * 7)) + iteration, 9)

    def iteration(self, comm, rank: int, state: Dict[str, Any], it: int) -> Iterator:
        requests = []
        for peer, size in self.send_list(rank):
            requests.append(
                comm.isend(peer, payload=self.payload(rank, peer, it), tag=self.tag,
                           size_bytes=size)
            )
        for peer in self.recv_list(rank):
            requests.append(comm.irecv(source=peer, tag=self.tag))
        values = yield from comm.waitall(requests)
        acc = 0.0
        for value in values:
            if value is not None and hasattr(value, "payload"):
                acc += float(value.payload)
                state["received"] += 1
        yield from comm.compute(self.compute_seconds)
        state["checksum"] = round9(0.5 * state["checksum"] + 0.25 * acc)

    def fast_forward_states(
        self, states: Dict[int, Dict[str, Any]], start_iteration: int, n: int
    ) -> bool:
        """Batched exchange round for the declarative-pattern kernels.

        The payload of every message is a pure function of (sender, receiver,
        iteration), so a rank's accumulator is computable without running the
        exchange.  ``acc`` sums ``float(payload)`` in ``recv_list(rank)``
        order -- the order the matching ``waitall`` yields the receive
        completions -- so the float additions happen in the same order as the
        driven execution and the checksums are bit-identical.

        FT overrides this (its transpose is a genuine all-to-all with a
        different accumulation order); the other five kernels share it.
        """
        if set(states) != set(range(self.nprocs)):
            return False
        self._build_maps()
        recv_map = self._recv_map
        assert recv_map is not None
        payload = self.payload
        for it in range(start_iteration, start_iteration + n):
            for rank, state in states.items():
                acc = 0.0
                for peer in recv_map[rank]:
                    acc += float(payload(peer, rank, it))
                state["received"] += len(recv_map[rank])
                state["checksum"] = round9(0.5 * state["checksum"] + 0.25 * acc)
        return True

    def finalize(self, comm, rank: int, state: Dict[str, Any]) -> Iterator:
        return {"rank": rank, "checksum": state["checksum"], "received": state["received"]}
        yield  # pragma: no cover

    def snapshot_state(self, state: Dict[str, Any]) -> Any:
        # Shared by all six kernels (FT included): the per-rank state is the
        # running checksum plus the delivery counter.
        return (state["checksum"], state["received"])

    def restore_state(self, snapshot: Any) -> Dict[str, Any]:
        checksum, received = snapshot
        return {"checksum": checksum, "received": received}

    # --------------------------------------------------------------- analysis
    def communication_matrix(self, weight: str = "bytes") -> np.ndarray:
        """Analytic per-channel volume for the configured number of iterations."""
        import numpy as np

        self._build_maps()
        matrix = np.zeros((self.nprocs, self.nprocs))
        assert self._send_map is not None
        for rank, entries in self._send_map.items():
            for peer, size in entries:
                matrix[rank, peer] += (size if weight == "bytes" else 1) * self.iterations
        return matrix

    def full_run_matrix(self, weight: str = "bytes") -> np.ndarray:
        """Volume of a full class D run (NPB iteration count), for Table I."""
        per_iteration = self.communication_matrix(weight) / self.iterations
        return per_iteration * self.full_run_iterations

    def parameters(self) -> Dict[str, Any]:
        params = super().parameters()
        params.update(
            message_scale=self.message_scale,
            compute_seconds=self.compute_seconds,
            full_run_iterations=self.full_run_iterations,
        )
        return params
