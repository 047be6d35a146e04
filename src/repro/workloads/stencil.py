"""Halo-exchange stencil workloads.

These are the "typical HPC application" used in the quick-start example and
in most recovery tests: a 1-D or 2-D domain decomposition where each rank
exchanges halos with its neighbours every iteration and then updates its
local block.  The communication pattern is static and nearest-neighbour,
which is the kind of pattern that clusters extremely well (few inter-cluster
channels), exactly the regime where HydEE's partial logging shines.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Tuple

from repro.errors import WorkloadError
from repro.workloads.base import Application, round9

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class Stencil1DApplication(Application):
    """1-D Jacobi-style stencil with left/right halo exchange."""

    name = "stencil1d"

    def __init__(
        self,
        nprocs: int,
        iterations: int = 5,
        points_per_rank: int = 64,
        halo_bytes: int = 4096,
        compute_seconds: float = 20.0e-6,
    ) -> None:
        super().__init__(nprocs, iterations)
        self.points_per_rank = points_per_rank
        self.halo_bytes = halo_bytes
        self.compute_seconds = compute_seconds

    def setup(self, rank: int, nprocs: int) -> Dict[str, Any]:
        # Deterministic initial condition that differs per rank.
        cells = [math.sin(0.1 * (rank * self.points_per_rank + i)) for i in range(self.points_per_rank)]
        return {"cells": cells}

    def iteration(self, comm, rank: int, state: Dict[str, Any], it: int) -> Iterator:
        cells: List[float] = state["cells"]
        left = rank - 1 if rank > 0 else None
        right = rank + 1 if rank < self.nprocs - 1 else None

        requests = []
        if left is not None:
            requests.append(comm.isend(left, payload=round(cells[0], 9), tag=30,
                                        size_bytes=self.halo_bytes))
            requests.append(comm.irecv(source=left, tag=30))
        if right is not None:
            requests.append(comm.isend(right, payload=round(cells[-1], 9), tag=30,
                                        size_bytes=self.halo_bytes))
            requests.append(comm.irecv(source=right, tag=30))
        values = yield from comm.waitall(requests)

        left_halo = cells[0]
        right_halo = cells[-1]
        # Receive completions are interleaved with send completions in the
        # request list; pick the messages out by their source.
        for value in values:
            if value is None:
                continue
            if left is not None and value.source == left:
                left_halo = value.payload
            elif right is not None and value.source == right:
                right_halo = value.payload

        yield from comm.compute(self.compute_seconds)
        extended = [left_halo] + cells + [right_halo]
        state["cells"] = [
            round((extended[i - 1] + extended[i] + extended[i + 1]) / 3.0, 9)
            for i in range(1, len(extended) - 1)
        ]

    def fast_forward_states(
        self, states: Dict[int, Dict[str, Any]], start_iteration: int, n: int
    ) -> bool:
        """Batched halo exchange over the 1-D chain.

        Mirrors :meth:`iteration` bit for bit: a rank's left halo is the
        value its left neighbour sent rightwards (``round(cells[-1], 9)``),
        its right halo is the right neighbour's ``round(cells[0], 9)``, and
        boundary ranks reuse their own unrounded edge cells.  All halos are
        gathered before any rank updates, matching the exchanged execution.
        """
        if set(states) != set(range(self.nprocs)):
            return False
        last = self.nprocs - 1
        for _ in range(n):
            halos = {}
            for rank, state in states.items():
                cells = state["cells"]
                left_halo = (
                    round(states[rank - 1]["cells"][-1], 9) if rank > 0 else cells[0]
                )
                right_halo = (
                    round(states[rank + 1]["cells"][0], 9) if rank < last else cells[-1]
                )
                halos[rank] = (left_halo, right_halo)
            for rank, state in states.items():
                left_halo, right_halo = halos[rank]
                extended = [left_halo] + state["cells"] + [right_halo]
                state["cells"] = [
                    round((extended[i - 1] + extended[i] + extended[i + 1]) / 3.0, 9)
                    for i in range(1, len(extended) - 1)
                ]
        return True

    def finalize(self, comm, rank: int, state: Dict[str, Any]) -> Iterator:
        local_sum = round(sum(state["cells"]), 9)
        return {"rank": rank, "sum": local_sum}
        yield  # pragma: no cover

    def snapshot_state(self, state: Dict[str, Any]) -> Any:
        return tuple(state["cells"])

    def restore_state(self, snapshot: Any) -> Dict[str, Any]:
        return {"cells": list(snapshot)}

    def parameters(self) -> Dict[str, Any]:
        params = super().parameters()
        params.update(
            points_per_rank=self.points_per_rank,
            halo_bytes=self.halo_bytes,
            compute_seconds=self.compute_seconds,
        )
        return params

    def communication_matrix(self, weight: str = "bytes") -> np.ndarray:
        import numpy as np

        per_message = self.halo_bytes if weight == "bytes" else 1
        matrix = np.zeros((self.nprocs, self.nprocs))
        for rank in range(self.nprocs):
            for nbr in (rank - 1, rank + 1):
                if 0 <= nbr < self.nprocs:
                    matrix[rank, nbr] += per_message * self.iterations
        return matrix


#: process grid -> compiled batched kernel (:meth:`Stencil2DApplication.
#: _build_ff_kernel`).  The generated code depends on the grid alone, and a
#: Monte Carlo sweep builds one application per replica, so it is compiled
#: once per process rather than once per instance.
_FF_KERNELS: Dict[Tuple[int, ...], Any] = {}


class Stencil2DApplication(Application):
    """2-D five-point stencil on a process grid with N/S/E/W halo exchange."""

    name = "stencil2d"

    def __init__(
        self,
        nprocs: int,
        iterations: int = 5,
        halo_bytes: int = 8192,
        compute_seconds: float = 40.0e-6,
        grid: Tuple[int, int] = None,
    ) -> None:
        super().__init__(nprocs, iterations)
        self.grid = grid or _near_square_grid(nprocs)
        if self.grid[0] * self.grid[1] != nprocs:
            raise WorkloadError(
                f"stencil2d grid {self.grid} does not match nprocs={nprocs}"
            )
        self.halo_bytes = halo_bytes
        self.compute_seconds = compute_seconds
        #: rank -> N/S/W/E neighbour ranks (static for the process grid).
        self._neighbours = [self._grid_neighbours(rank) for rank in range(nprocs)]

    # -- process grid helpers -------------------------------------------------
    def coords(self, rank: int) -> Tuple[int, int]:
        cols = self.grid[1]
        return rank // cols, rank % cols

    def rank_of(self, row: int, col: int) -> int:
        return row * self.grid[1] + col

    def neighbours(self, rank: int) -> List[int]:
        return self._neighbours[rank]

    def _grid_neighbours(self, rank: int) -> List[int]:
        row, col = self.coords(rank)
        rows, cols = self.grid
        out = []
        if row > 0:
            out.append(self.rank_of(row - 1, col))
        if row < rows - 1:
            out.append(self.rank_of(row + 1, col))
        if col > 0:
            out.append(self.rank_of(row, col - 1))
        if col < cols - 1:
            out.append(self.rank_of(row, col + 1))
        return out

    # -- application hooks ----------------------------------------------------
    def setup(self, rank: int, nprocs: int) -> Dict[str, Any]:
        return {"value": float(rank % 17) + 1.0, "halo_sum": 0.0}

    def iteration(self, comm, rank: int, state: Dict[str, Any], it: int) -> Iterator:
        neighbours = self._neighbours[rank]
        requests = []
        outgoing = round9(state["value"] * (it + 1))
        for nbr in neighbours:
            requests.append(
                comm.isend(nbr, payload=outgoing, tag=31, size_bytes=self.halo_bytes)
            )
            requests.append(comm.irecv(source=nbr, tag=31))
        values = yield from comm.waitall(requests)
        halo_sum = 0.0
        for value in values:
            if value is not None:
                halo_sum += value.payload
        yield from comm.compute(self.compute_seconds)
        state["halo_sum"] = round9(state["halo_sum"] + halo_sum)
        state["value"] = round9(0.5 * state["value"] + 0.1 * halo_sum)

    def fast_forward_states(
        self, states: Dict[int, Dict[str, Any]], start_iteration: int, n: int
    ) -> bool:
        """Batched halo exchange: every rank's halo values are available
        locally, so an iteration is one pass over the grid.

        The float operations mirror :meth:`iteration` exactly -- outgoing
        values are rounded first, ``halo_sum`` accumulates in neighbour order
        (the ``waitall`` delivery order of the message path), and the state
        updates use the same rounding -- so the bulk advance is bit-identical
        to the exchanged execution.
        """
        if set(states) != set(range(self.nprocs)):
            return False
        grid = tuple(self.grid)  # a spec's JSON parameters deliver a list
        kernel = _FF_KERNELS.get(grid)
        if kernel is None:
            kernel = _FF_KERNELS[grid] = self._build_ff_kernel()
        kernel(states, start_iteration, n)
        return True

    def _build_ff_kernel(self):
        """Compile the batched advance into straight-line code over locals.

        The generated function performs exactly the float operations of the
        generic loop (outgoing values rounded first, ``halo_sum`` accumulated
        in neighbour order from an explicit ``0.0``, the two state updates
        with the same rounding), just without any per-iteration dict or list
        traffic -- this sits on the hybrid executor's hottest path, where the
        interpreter overhead of the generic loop rivals the float work
        itself.

        Roundings go through :func:`~repro.workloads.base.round9` like
        :meth:`iteration`'s: the stencil's unnormalised update rule drives
        values into the range where a plain ``round`` costs microseconds.
        """
        ranks = range(self.nprocs)
        lines = ["def _ff(states, start_iteration, n, _round9=round9):"]
        for r in ranks:
            lines.append(f"    s{r} = states[{r}]")
            lines.append(f"    v{r} = s{r}['value']")
            lines.append(f"    h{r} = s{r}['halo_sum']")
        lines.append("    for it in range(start_iteration, start_iteration + n):")
        lines.append("        m = it + 1")
        for r in ranks:
            lines.append(f"        o{r} = _round9(v{r} * m)")
        for r in ranks:
            terms = " + ".join(f"o{nbr}" for nbr in self.neighbours(r))
            lines.append(f"        x = 0.0 + {terms}")
            lines.append(f"        h{r} = _round9(h{r} + x)")
            lines.append(f"        v{r} = _round9(0.5 * v{r} + 0.1 * x)")
        for r in ranks:
            lines.append(f"    s{r}['value'] = v{r}")
            lines.append(f"    s{r}['halo_sum'] = h{r}")
        namespace: Dict[str, Any] = {"round9": round9}
        exec("\n".join(lines), namespace)
        return namespace["_ff"]

    def finalize(self, comm, rank: int, state: Dict[str, Any]) -> Iterator:
        return {"rank": rank, "value": state["value"], "halo_sum": state["halo_sum"]}
        yield  # pragma: no cover

    def snapshot_state(self, state: Dict[str, Any]) -> Any:
        return (state["value"], state["halo_sum"])

    def restore_state(self, snapshot: Any) -> Dict[str, Any]:
        value, halo_sum = snapshot
        return {"value": value, "halo_sum": halo_sum}

    def parameters(self) -> Dict[str, Any]:
        params = super().parameters()
        params.update(grid=self.grid, halo_bytes=self.halo_bytes,
                      compute_seconds=self.compute_seconds)
        return params

    def communication_matrix(self, weight: str = "bytes") -> np.ndarray:
        import numpy as np

        per_message = self.halo_bytes if weight == "bytes" else 1
        matrix = np.zeros((self.nprocs, self.nprocs))
        for rank in range(self.nprocs):
            for nbr in self.neighbours(rank):
                matrix[rank, nbr] += per_message * self.iterations
        return matrix


def _near_square_grid(nprocs: int) -> Tuple[int, int]:
    """Largest factorisation rows x cols with rows <= cols and rows maximal."""
    rows = int(math.isqrt(nprocs))
    while rows > 1 and nprocs % rows != 0:
        rows -= 1
    return rows, nprocs // rows
