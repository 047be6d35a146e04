"""Unit tests for point-to-point communication, requests and collectives on
small hand-written applications."""

import pytest

from repro.errors import DeadlockError, InvalidOperationError
from repro.simulator.messages import ANY_SOURCE, Message
from repro.simulator.process import RankState
from repro.simulator.requests import RecvRequest
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.workloads.base import Application
from tests.conftest import WaitProbe


class _ScriptedApp(Application):
    """Application whose single iteration is provided as a callable."""

    name = "scripted"

    def __init__(self, nprocs, body, iterations=1):
        super().__init__(nprocs, iterations)
        self._body = body

    def setup(self, rank, nprocs):
        return {"out": []}

    def iteration(self, comm, rank, state, it):
        yield from self._body(comm, rank, state, it)

    def finalize(self, comm, rank, state):
        return state["out"]
        yield  # pragma: no cover


def run_script(nprocs, body, iterations=1):
    app = _ScriptedApp(nprocs, body, iterations)
    sim = Simulation(app, nprocs=nprocs)
    result = sim.run()
    return result


class TestPointToPoint:
    def test_blocking_send_recv(self):
        def body(comm, rank, state, it):
            if rank == 0:
                yield from comm.send(1, payload="ping", tag=1, size_bytes=32)
            else:
                message = yield from comm.recv(source=0, tag=1)
                state["out"].append(message.payload)

        result = run_script(2, body)
        assert result.rank_results[1] == ["ping"]

    def test_isend_wait_and_irecv(self):
        def body(comm, rank, state, it):
            if rank == 0:
                request = comm.isend(1, payload=123, tag=2, size_bytes=8)
                yield from comm.wait(request)
            else:
                request = comm.irecv(source=0, tag=2)
                message = yield from comm.wait(request)
                state["out"].append(message.payload)

        result = run_script(2, body)
        assert result.rank_results[1] == [123]

    def test_any_source_receive(self):
        def body(comm, rank, state, it):
            if rank == 0:
                for _ in range(2):
                    message = yield from comm.recv(source=ANY_SOURCE, tag=5)
                    state["out"].append(message.source)
            else:
                yield from comm.send(0, payload=rank, tag=5, size_bytes=8)

        result = run_script(3, body)
        assert sorted(result.rank_results[0]) == [1, 2]

    def test_tag_matching_keeps_messages_apart(self):
        def body(comm, rank, state, it):
            if rank == 0:
                yield from comm.send(1, payload="a", tag=10, size_bytes=8)
                yield from comm.send(1, payload="b", tag=11, size_bytes=8)
            else:
                second = yield from comm.recv(source=0, tag=11)
                first = yield from comm.recv(source=0, tag=10)
                state["out"] = [second.payload, first.payload]

        result = run_script(2, body)
        assert result.rank_results[1] == ["b", "a"]

    def test_fifo_order_per_channel_same_tag(self):
        def body(comm, rank, state, it):
            if rank == 0:
                for value in range(5):
                    yield from comm.send(1, payload=value, tag=3, size_bytes=8)
            else:
                for _ in range(5):
                    message = yield from comm.recv(source=0, tag=3)
                    state["out"].append(message.payload)

        result = run_script(2, body)
        assert result.rank_results[1] == [0, 1, 2, 3, 4]

    def test_sendrecv_exchanges_without_deadlock(self):
        def body(comm, rank, state, it):
            peer = 1 - rank
            message = yield from comm.sendrecv(peer, payload=rank, source=peer, tag=9,
                                               size_bytes=16)
            state["out"].append(message.payload)

        result = run_script(2, body)
        assert result.rank_results[0] == [1]
        assert result.rank_results[1] == [0]

    def test_waitall_and_waitany(self):
        def body(comm, rank, state, it):
            if rank == 0:
                reqs = [comm.isend(1, payload=i, tag=20 + i, size_bytes=8) for i in range(3)]
                yield from comm.waitall(reqs)
            else:
                reqs = [comm.irecv(source=0, tag=20 + i) for i in range(3)]
                index, message = yield from comm.waitany(reqs)
                state["out"].append(("any", message.payload))
                rest = [r for i, r in enumerate(reqs) if i != index and not r.complete]
                messages = yield from comm.waitall(rest)
                state["out"].extend(m.payload for m in messages)

        result = run_script(2, body)
        values = result.rank_results[1]
        assert values[0][0] == "any"
        assert len(values) >= 2

    @pytest.mark.parametrize("mode", ["all", "any", "one"])
    def test_cancelled_request_never_satisfies_a_wait(self, mode):
        cancelled = RecvRequest(0, 1, tag=7)
        cancelled.cancel()
        probe = WaitProbe(mode, [cancelled])
        assert probe.resumed == []
        assert probe.proc.state is RankState.BLOCKED

    def test_waitany_skips_a_cancelled_request_for_a_live_one(self):
        cancelled = RecvRequest(0, 1, tag=7)
        cancelled.cancel()
        live = RecvRequest(0, 1, tag=8)
        probe = WaitProbe("any", [cancelled, live])
        assert probe.resumed == []
        message = Message(source=1, dest=0, tag=8, size_bytes=8, payload="live")
        probe.complete(live, message)
        assert probe.resumed == [(1, message)]

    def test_compute_advances_time(self):
        def body(comm, rank, state, it):
            yield from comm.compute(5e-3)

        result = run_script(1, body)
        assert result.makespan >= 5e-3

    def test_self_send_rejected(self):
        def body(comm, rank, state, it):
            yield from comm.send(0, payload=1)

        with pytest.raises(InvalidOperationError):
            run_script(1, body)

    def test_peer_out_of_range_rejected(self):
        def body(comm, rank, state, it):
            yield from comm.send(5, payload=1)

        with pytest.raises(InvalidOperationError):
            run_script(2, body)

    @pytest.mark.parametrize("call", ["send", "isend", "bcast"])
    def test_negative_message_size_rejected(self, call):
        # Without the check the run completed with negative byte counters.
        def body(comm, rank, state, it):
            if call == "bcast":
                yield from comm.bcast(1, root=0, size_bytes=-10**9)
            elif rank == 0 and call == "send":
                yield from comm.send(1, payload=1, size_bytes=-10**9)
            elif rank == 0:
                yield from comm.wait(comm.isend(1, payload=1, size_bytes=-10**9))
            else:
                yield from comm.recv(source=0)

        with pytest.raises(InvalidOperationError, match="size -1000000000"):
            run_script(2, body)

    def test_zero_message_size_is_a_message(self):
        def body(comm, rank, state, it):
            if rank == 0:
                yield from comm.send(1, payload=None, size_bytes=0)
            else:
                yield from comm.recv(source=0)

        result = run_script(2, body)
        assert (result.metric("sim.app_messages"), result.metric("sim.app_bytes")) == (1, 0)

    def test_negative_compute_rejected(self):
        def body(comm, rank, state, it):
            yield from comm.compute(-1.0)

        with pytest.raises(InvalidOperationError):
            run_script(1, body)

    def test_missing_message_deadlocks_with_report(self):
        def body(comm, rank, state, it):
            if rank == 1:
                yield from comm.recv(source=0, tag=99)

        with pytest.raises(DeadlockError) as excinfo:
            run_script(2, body)
        assert "rank 1" in str(excinfo.value)

    def test_deadlock_names_each_unfinished_rank_and_what_it_waits_on(self):
        # Ranks 0 and 1 ping-pong to the end; rank 2 waits on a message
        # nobody sends.
        def body(comm, rank, state, it):
            if rank == 2:
                yield from comm.recv(source=0, tag=99)
            elif rank == 0:
                yield from comm.send(1, payload=it)
                yield from comm.recv(source=1)
            else:
                yield from comm.recv(source=0)
                yield from comm.send(0, payload=it)

        with pytest.raises(DeadlockError) as excinfo:
            run_script(3, body, iterations=3)
        lines = str(excinfo.value).splitlines()
        assert lines[0] == "simulation deadlock: event queue empty but ranks are not done"
        report = {line.split(":")[0].strip(): line for line in lines[1:]}
        assert sorted(report) == ["rank 2", "recovery in progress"]
        assert report["recovery in progress"].endswith("recovery in progress: False")
        assert report["rank 2"].endswith(
            "state=blocked iteration=0 blocked on recv(source=0, tag=99)"
        )

    def test_deadlock_report_lists_every_blocked_rank(self):
        # Ranks 0 and 1 each wait for the other first; rank 2 finishes.
        def body(comm, rank, state, it):
            if rank < 2:
                yield from comm.recv(source=1 - rank)

        with pytest.raises(DeadlockError) as excinfo:
            run_script(3, body)
        lines = str(excinfo.value).splitlines()
        report = {line.split(":")[0].strip(): line for line in lines[1:]}
        assert sorted(report) == ["rank 0", "rank 1", "recovery in progress"]
        assert "state=blocked" in report["rank 0"] and "iteration=0" in report["rank 0"]
        assert report["rank 0"].endswith("blocked on recv(source=1, tag=-1)")
        assert report["rank 1"].endswith("blocked on recv(source=0, tag=-1)")

    def test_deadlock_can_be_reported_without_raising(self):
        def body(comm, rank, state, it):
            if rank == 1:
                yield from comm.recv(source=0, tag=99)

        app = _ScriptedApp(2, body, 1)
        sim = Simulation(app, nprocs=2, config=SimulationConfig(raise_on_incomplete=False))
        result = sim.run()
        assert result.status == "deadlock"
        assert not result.completed


class TestCollectives:
    @pytest.mark.parametrize("nprocs", [2, 3, 4, 7, 8])
    def test_bcast_delivers_root_value(self, nprocs):
        def body(comm, rank, state, it):
            value = "payload" if rank == 2 % nprocs else None
            received = yield from comm.bcast(value, root=2 % nprocs, size_bytes=64)
            state["out"].append(received)

        result = run_script(nprocs, body)
        assert all(result.rank_results[r] == ["payload"] for r in range(nprocs))

    @pytest.mark.parametrize("nprocs", [2, 4, 5, 8])
    def test_allreduce_sum(self, nprocs):
        def body(comm, rank, state, it):
            total = yield from comm.allreduce(rank + 1, size_bytes=8)
            state["out"].append(total)

        result = run_script(nprocs, body)
        expected = sum(range(1, nprocs + 1))
        assert all(result.rank_results[r] == [expected] for r in range(nprocs))

    def test_reduce_only_root_gets_result(self):
        def body(comm, rank, state, it):
            value = yield from comm.reduce(rank, root=1, size_bytes=8)
            state["out"].append(value)

        result = run_script(4, body)
        assert result.rank_results[1] == [0 + 1 + 2 + 3]
        assert result.rank_results[0] == [None]

    @pytest.mark.parametrize("nprocs", [2, 3, 6])
    def test_gather_and_allgather(self, nprocs):
        def body(comm, rank, state, it):
            gathered = yield from comm.gather(rank * 10, root=0, size_bytes=8)
            everyone = yield from comm.allgather(rank * 10, size_bytes=8)
            state["out"] = [gathered, everyone]

        result = run_script(nprocs, body)
        expected = [r * 10 for r in range(nprocs)]
        assert result.rank_results[0][0] == expected
        assert all(result.rank_results[r][1] == expected for r in range(nprocs))
        assert all(result.rank_results[r][0] is None for r in range(1, nprocs))

    def test_scatter(self):
        def body(comm, rank, state, it):
            values = [f"item{i}" for i in range(comm.size)] if rank == 0 else None
            mine = yield from comm.scatter(values, root=0, size_bytes=16)
            state["out"].append(mine)

        result = run_script(4, body)
        assert [result.rank_results[r][0] for r in range(4)] == [
            "item0", "item1", "item2", "item3"
        ]

    @pytest.mark.parametrize("nprocs", [2, 3, 4, 6])
    def test_alltoall(self, nprocs):
        def body(comm, rank, state, it):
            blocks = [f"{rank}->{dest}" for dest in range(nprocs)]
            received = yield from comm.alltoall(blocks, size_bytes=32)
            state["out"] = received

        result = run_script(nprocs, body)
        for rank in range(nprocs):
            assert result.rank_results[rank] == [f"{src}->{rank}" for src in range(nprocs)]

    def test_barrier_synchronises_progress(self):
        def body(comm, rank, state, it):
            if rank == 0:
                yield from comm.compute(1e-3)
            yield from comm.barrier()
            state["out"].append(comm.now)

        result = run_script(4, body)
        times = [result.rank_results[r][0] for r in range(4)]
        # Nobody leaves the barrier before the slowest rank reached it.
        assert min(times) >= 1e-3

    def test_alltoall_wrong_block_count_rejected(self):
        def body(comm, rank, state, it):
            yield from comm.alltoall([1, 2, 3], size_bytes=8)

        with pytest.raises(InvalidOperationError):
            run_script(2, body)


class TestTransportFifoClamp:
    """FIFO non-overtaking must survive float precision at large times."""

    def _transport(self):
        from repro.simulator.channel import Transport
        from repro.simulator.engine import SimulationEngine
        from repro.simulator.messages import Message
        from repro.simulator.network import MyrinetMXModel

        engine = SimulationEngine()
        delivered = []
        transport = Transport(engine, MyrinetMXModel(), delivered.append)
        return engine, transport, delivered, Message

    def test_fifo_clamp_not_absorbed_at_large_simulation_time(self):
        import math

        engine, transport, delivered, Message = self._transport()
        arrivals = []

        def send_pair():
            # A large message followed by a small one on the same channel:
            # the small one would overtake and must be clamped.
            arrivals.append(
                transport.transmit(Message(source=0, dest=1, tag=0, size_bytes=1 << 20))
            )
            arrivals.append(
                transport.transmit(Message(source=0, dest=1, tag=1, size_bytes=1))
            )

        # At t=1e5 s the old `previous + 1e-12` clamp was absorbed by float
        # precision (ulp(1e5) ~ 1.5e-11), silently breaking strict ordering.
        engine.schedule(1.0e5, send_pair)
        engine.run()
        assert arrivals[1] > arrivals[0]
        assert arrivals[1] == math.nextafter(arrivals[0], math.inf)
        assert [m.tag for m in delivered] == [0, 1]

    def test_fifo_order_preserved_for_many_ties(self):
        engine, transport, delivered, Message = self._transport()
        arrivals = []

        def send_burst():
            for i in range(100):
                arrivals.append(
                    transport.transmit(Message(source=0, dest=1, tag=i, size_bytes=8))
                )

        engine.schedule(7.0e4, send_burst)
        engine.run()
        assert [m.tag for m in delivered] == list(range(100))
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))
