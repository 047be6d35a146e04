"""Isolated rungs: each layer driven directly with synthetic input.

A rung calls one layer's functions straight from here, with nothing else of
the program running, and reports a rate or a time.  Rungs are small (the
whole ladder takes a few seconds) and report the best of three repetitions.
They tell whether a layer itself got slower; the traced run tells how much
of a workload that layer is.
"""

import dataclasses
import os
from typing import Any, Callable, Dict

from repro.campaign.runner import run_campaign
from repro.campaign.store import ResultsStore
from repro.core.message_log import SenderLog
from repro.core.rpp import RPPTable
from repro.faults.montecarlo import prewarm_calibration
from repro.faults.spec import FaultModelSpec
from repro.faults.trace import generate_trace
from repro.results.query import ResultSet
from repro.scenarios.build import WORKLOAD_FACTORIES, build, build_application
from repro.scenarios.spec import ProtocolSpec, ScenarioSpec, WorkloadSpec
from repro.simulator.calibration import CalibrationCache, activated
from repro.simulator.channel import Transport
from repro.simulator.engine import SimulationEngine
from repro.simulator.messages import Message
from repro.simulator.network import MyrinetMXModel, RoutedNetworkModel
from repro.simulator.stable_storage import StableStorage, snapshot_strategy_for
from repro.topology import ContentionModel, build_topology

from .clock import clock
from .workloads import BY_NAME, FULL, NPROCS, Sizes, hydee_spec

def _best(run: Callable[[], Any], scale: int) -> float:
    """Best wall time of ``run``: of three repetitions, of one on the shrunk ladder."""
    best = float("inf")
    for _ in range(3 if scale == 1 else 1):
        started = clock()
        run()
        best = min(best, clock() - started)
    return best


def _noop() -> None:
    pass


def _engine(scale: int) -> Dict[str, float]:
    events = 100_000 // scale

    def run() -> None:
        engine = SimulationEngine()
        schedule = engine.schedule
        for i in range(events):
            schedule(float(i) * 1e-9, _noop)
        engine.run()

    return {"engine.events_per_s": events / _best(run, scale)}


def _process_and_protocol(scale: int) -> Dict[str, float]:
    """The null protocol against HydEE (no checkpoints) on one message stream."""
    iterations = max(4, 60 // scale)
    native = ScenarioSpec(
        name="rung-native",
        workload=WorkloadSpec(kind="stencil2d", nprocs=NPROCS, iterations=iterations),
        protocol=ProtocolSpec(name="native"),
    )
    hydee = hydee_spec("rung-hydee", "stencil2d", iterations, checkpoint_interval=iterations + 1)
    messages = build(native).run().stats.app_messages
    native_s = _best(lambda: build(native).run(), scale)
    hydee_s = _best(lambda: build(hydee).run(), scale)
    return {
        "process.null_msgs_per_s": messages / native_s,
        "protocol.hook_us_per_msg": (hydee_s - native_s) / messages * 1e6,
    }


def _channel(scale: int) -> Dict[str, float]:
    messages = 20_000 // scale

    def run() -> None:
        engine = SimulationEngine()
        transport = Transport(engine, MyrinetMXModel(), lambda _message: None)
        for i in range(messages):
            transport.transmit(Message(source=0, dest=1, tag=i, size_bytes=64))
        engine.run()

    return {"channel.msgs_per_s": messages / _best(run, scale)}


def _topology(scale: int) -> Dict[str, float]:
    messages = 10_000 // scale
    topology = build_topology("hierarchical", NPROCS, ranks_per_node=2, nodes_per_cluster=2,
                              oversubscription=8)

    def routed() -> None:
        engine = SimulationEngine()
        transport = Transport(engine, RoutedNetworkModel(MyrinetMXModel(), topology),
                              lambda _message: None)
        for i in range(messages):
            source = i % NPROCS
            transport.transmit(Message(source=source, dest=(source + 1 + i % (NPROCS - 1)) % NPROCS,
                                       tag=i, size_bytes=4096))
        engine.run()

    path = topology.route(0, NPROCS - 1)

    def reserve() -> None:
        contention = ContentionModel()
        for i in range(messages):
            contention.reserve(path, 4096, i * 1e-6)

    return {
        "topology.routed_msgs_per_s": messages / _best(routed, scale),
        "topology.reserve_per_s": messages / _best(reserve, scale),
    }


def _message_log(scale: int) -> Dict[str, float]:
    entries = 50_000 // scale
    message = Message(source=0, dest=1, tag=0, size_bytes=4096)

    def adds() -> None:
        log = SenderLog()
        for i in range(entries):
            log.add(i % NPROCS, i, 1, message)

    def observes() -> None:
        table = RPPTable()
        for i in range(entries):
            table.observe(i % NPROCS, i, 1)

    return {
        "message_log.adds_per_s": entries / _best(adds, scale),
        "message_log.rpp_observes_per_s": entries / _best(observes, scale),
    }


def _checkpoint(scale: int) -> Dict[str, float]:
    saves = 10_000 // scale
    rounds = max(1, 200 // scale)
    apps = [
        build_application(WorkloadSpec(kind=kind, nprocs=2 if kind == "netpipe" else NPROCS,
                                       iterations=2))
        for kind in sorted(WORKLOAD_FACTORIES)
    ]
    states = [(app, app.setup(0, app.nprocs)) for app in apps]
    stencil = next(app for app in apps if app.name == "stencil2d")
    stencil_state = stencil.setup(0, NPROCS)

    def save() -> None:
        storage = StableStorage(snapshot_strategy=snapshot_strategy_for(stencil))
        for i in range(saves):
            storage.save(rank=i % NPROCS, iteration=i, app_state=stencil_state, time=0.0,
                         size_bytes=65536)

    def snapshot_restore() -> None:
        for app, state in states:
            for _ in range(rounds):
                app.restore_state(app.snapshot_state(state))

    return {
        "checkpoint.saves_per_s": saves / _best(save, scale),
        "checkpoint.snapshot_restore_per_s": rounds * len(states) / _best(snapshot_restore, scale),
    }


def _hybrid(scale: int) -> Dict[str, float]:
    spec = dataclasses.replace(
        hydee_spec("rung-hybrid", "stencil2d", max(24, 400 // scale), 4), execution="hybrid"
    )
    cache = CalibrationCache()

    def prewarm() -> None:
        if not prewarm_calibration(spec, CalibrationCache()):
            raise RuntimeError("the hybrid rung's scenario did not calibrate")

    prewarm_s = _best(prewarm, scale)
    prewarm_calibration(spec, cache)
    with activated(cache):
        cached_s = _best(lambda: build(spec).run(), scale)
    return {"hybrid.prewarm_s": prewarm_s, "hybrid.cached_replica_ms": cached_s * 1e3}


def _faults(scale: int) -> Dict[str, float]:
    traces = 400 // scale
    fault = FaultModelSpec(distribution="exponential", params={"mtbf_s": 4.0}, horizon_s=1.0)

    def run() -> None:
        for replica in range(traces):
            generate_trace(dataclasses.replace(fault, replica=replica), NPROCS)

    return {"faults.traces_per_s": traces / _best(run, scale)}


def _scenarios(scale: int) -> Dict[str, float]:
    builds, hashes = 100 // scale, 2000 // scale
    spec = hydee_spec("rung-build", "stencil2d", 8, 4)

    def build_many() -> None:
        for _ in range(builds):
            build(spec)

    def hash_many() -> None:
        for _ in range(hashes):
            spec.spec_hash()

    return {
        "scenarios.builds_per_s": builds / _best(build_many, scale),
        "scenarios.spec_hashes_per_s": hashes / _best(hash_many, scale),
    }


def _campaign(scale: int) -> Dict[str, float]:
    specs = [
        ScenarioSpec(name=f"rung-cached-{i}",
                     workload=WorkloadSpec(kind="ring", nprocs=4, iterations=2),
                     tags={"index": i})
        for i in range(max(4, 64 // scale))
    ]
    store = ResultsStore()
    run_campaign(specs, store=store)
    return {"campaign.cached_specs_per_s": len(specs) / _best(
        lambda: run_campaign(specs, store=store), scale)}


def _store_and_results(scale: int, sizes: Sizes, seed: int, workdir: str) -> Dict[str, float]:
    workload = BY_NAME["store_query_1k"]
    ctx = workload.setup(seed, sizes, workdir)
    workload.prepare(ctx)
    path = ctx["path"]
    load_s = _best(lambda: ResultsStore(path), scale)
    store = ResultsStore(path)
    save_s = _best(store.save, scale)
    from_store_s = _best(lambda: ResultSet.from_store(store), scale)
    results = ResultSet.from_store(store)
    query_s = _best(lambda: results.where(**{"tags.family": "synthetic"})
                    .pivot("tags.row", "tags.col", "sim.makespan"), scale)
    return {
        "store.load_s": load_s,
        "store.save_s": save_s,
        "store.save_us_per_record": save_s / len(store) * 1e6,
        "results.from_store_s": from_store_s,
        "results.query_s": query_s,
    }


RUNG_NAMES = (
    "engine.events_per_s",
    "process.null_msgs_per_s",
    "protocol.hook_us_per_msg",
    "channel.msgs_per_s",
    "topology.routed_msgs_per_s",
    "topology.reserve_per_s",
    "message_log.adds_per_s",
    "message_log.rpp_observes_per_s",
    "checkpoint.saves_per_s",
    "checkpoint.snapshot_restore_per_s",
    "hybrid.prewarm_s",
    "hybrid.cached_replica_ms",
    "faults.traces_per_s",
    "scenarios.builds_per_s",
    "scenarios.spec_hashes_per_s",
    "campaign.cached_specs_per_s",
    "store.load_s",
    "store.save_s",
    "store.save_us_per_record",
    "results.from_store_s",
    "results.query_s",
)


def run_ladder(sizes: Sizes, seed: int, workdir: str) -> Dict[str, float]:
    """Every rung once; ``sizes`` other than the full ones shrink the ladder."""
    scale = 1 if sizes is FULL else 20
    rungs: Dict[str, float] = {}
    for rung in (_engine, _process_and_protocol, _channel, _topology, _message_log,
                 _checkpoint, _hybrid, _faults, _scenarios, _campaign):
        rungs.update(rung(scale))
    rung_dir = os.path.join(workdir, "rungs")
    os.makedirs(rung_dir, exist_ok=True)
    rungs.update(_store_and_results(scale, sizes, seed, rung_dir))
    if sorted(rungs) != sorted(RUNG_NAMES):
        raise RuntimeError(f"rung names drifted: {sorted(set(rungs) ^ set(RUNG_NAMES))}")
    return rungs
