"""Ring / pipeline exchange workloads.

Small, fully deterministic workloads used by unit and property tests: each
rank sends a token to its right neighbour and receives from its left
neighbour every iteration, then performs a fixed amount of local work.  The
final state is a function of every received token, so a single corrupted or
duplicated delivery changes the result -- which is exactly what the recovery
correctness tests want to detect.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator

from repro.workloads.base import Application


class RingApplication(Application):
    """Unidirectional ring exchange."""

    name = "ring"

    def __init__(
        self,
        nprocs: int,
        iterations: int = 4,
        message_bytes: int = 1024,
        compute_seconds: float = 10.0e-6,
    ) -> None:
        super().__init__(nprocs, iterations)
        self.message_bytes = message_bytes
        self.compute_seconds = compute_seconds

    def setup(self, rank: int, nprocs: int) -> Dict[str, Any]:
        return {"value": float(rank + 1), "received": []}

    def iteration(self, comm, rank: int, state: Dict[str, Any], it: int) -> Iterator:
        if self.nprocs == 1:
            yield from comm.compute(self.compute_seconds)
            state["value"] += 1.0
            return
        right = (rank + 1) % self.nprocs
        left = (rank - 1) % self.nprocs
        token = round(state["value"] * (it + 1), 6)
        sreq = comm.isend(right, payload=token, tag=10, size_bytes=self.message_bytes)
        message = yield from comm.recv(source=left, tag=10)
        yield from comm.wait(sreq)
        state["received"].append(message.payload)
        state["value"] = round(state["value"] + 0.5 * message.payload, 6)
        yield from comm.compute(self.compute_seconds)

    def fast_forward_states(
        self, states: Dict[int, Dict[str, Any]], start_iteration: int, n: int
    ) -> bool:
        """Batched ring exchange.

        Each rank's iteration consumes exactly the token its left neighbour
        produced this iteration (``round(value * (it + 1), 6)``), so the
        whole round is computable locally.  Tokens are gathered from the
        pre-update values before any rank mutates, and the state update uses
        the same roundings as :meth:`iteration`.
        """
        if set(states) != set(range(self.nprocs)):
            return False
        nprocs = self.nprocs
        if nprocs == 1:
            state = states[0]
            for _ in range(n):
                state["value"] += 1.0
            return True
        for it in range(start_iteration, start_iteration + n):
            tokens = {
                rank: round(state["value"] * (it + 1), 6)
                for rank, state in states.items()
            }
            for rank, state in states.items():
                payload = tokens[(rank - 1) % nprocs]
                state["received"].append(payload)
                state["value"] = round(state["value"] + 0.5 * payload, 6)
        return True

    def finalize(self, comm, rank: int, state: Dict[str, Any]) -> Iterator:
        return {"rank": rank, "value": state["value"], "received": tuple(state["received"])}
        yield  # pragma: no cover

    def snapshot_state(self, state: Dict[str, Any]) -> Any:
        return (state["value"], tuple(state["received"]))

    def restore_state(self, snapshot: Any) -> Dict[str, Any]:
        value, received = snapshot
        return {"value": value, "received": list(received)}

    def parameters(self) -> Dict[str, Any]:
        params = super().parameters()
        params.update(message_bytes=self.message_bytes, compute_seconds=self.compute_seconds)
        return params


class PipelineApplication(Application):
    """Linear pipeline: rank 0 produces, each rank transforms and forwards.

    Exhibits long happened-before chains across many processes, which is the
    stress case for HydEE's phase mechanism (a message late in the pipeline
    causally depends on many earlier inter-cluster messages).
    """

    name = "pipeline"

    def __init__(
        self,
        nprocs: int,
        iterations: int = 4,
        message_bytes: int = 2048,
        compute_seconds: float = 5.0e-6,
    ) -> None:
        super().__init__(nprocs, iterations)
        self.message_bytes = message_bytes
        self.compute_seconds = compute_seconds

    def setup(self, rank: int, nprocs: int) -> Dict[str, Any]:
        return {"acc": 0.0}

    def iteration(self, comm, rank: int, state: Dict[str, Any], it: int) -> Iterator:
        nprocs = self.nprocs
        if nprocs == 1:
            yield from comm.compute(self.compute_seconds)
            state["acc"] += it + 1.0
            return
        if rank == 0:
            value = float(it + 1)
            yield from comm.compute(self.compute_seconds)
            yield from comm.send(1, payload=value, tag=20, size_bytes=self.message_bytes)
            state["acc"] += value
        else:
            message = yield from comm.recv(source=rank - 1, tag=20)
            value = message.payload + 1.0
            yield from comm.compute(self.compute_seconds)
            if rank < nprocs - 1:
                yield from comm.send(
                    rank + 1, payload=value, tag=20, size_bytes=self.message_bytes
                )
            state["acc"] += value

    def fast_forward_states(
        self, states: Dict[int, Dict[str, Any]], start_iteration: int, n: int
    ) -> bool:
        """Batched pipeline advance.

        Rank 0's per-iteration value is ``float(it + 1)`` and each later
        rank adds 1.0 to the value it receives, so the chain is computed in
        rank order exactly as the forwarded messages would produce it.
        """
        if set(states) != set(range(self.nprocs)):
            return False
        nprocs = self.nprocs
        if nprocs == 1:
            state = states[0]
            for it in range(start_iteration, start_iteration + n):
                state["acc"] += it + 1.0
            return True
        for it in range(start_iteration, start_iteration + n):
            value = float(it + 1)
            states[0]["acc"] += value
            for rank in range(1, nprocs):
                value = value + 1.0
                states[rank]["acc"] += value
        return True

    def finalize(self, comm, rank: int, state: Dict[str, Any]) -> Iterator:
        return {"rank": rank, "acc": state["acc"]}
        yield  # pragma: no cover

    def snapshot_state(self, state: Dict[str, Any]) -> Any:
        return state["acc"]

    def restore_state(self, snapshot: Any) -> Dict[str, Any]:
        return {"acc": snapshot}

    def parameters(self) -> Dict[str, Any]:
        params = super().parameters()
        params.update(message_bytes=self.message_bytes, compute_seconds=self.compute_seconds)
        return params
