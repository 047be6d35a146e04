"""Layer boundaries and the out-of-program tracer.

Layers are named after the modules of ``src/repro``.  The tracer installs
timing wrappers *from this file* around the public functions of each layer
(class attributes and module-level functions), runs a body, and removes
them again; nothing inside the program knows it is being traced.

A wrapper keeps per-layer accumulators only: call count and self time,
where self time = the call's span minus the spans of the wrapped calls it
made.  Functions at replica level and above additionally record a raw span
(name, start, end, parent).  Hooks that hand a generator back to the rank
driver (``on_iteration_boundary``, the communicator's collectives) get a
generator proxy, so every resumption is attributed to the hook's layer and
not to the engine that happens to resume it.
"""

import importlib
import sys
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .clock import clock

LAYERS = (
    "engine",
    "process",
    "channel",
    "topology",
    "protocol",
    "message_log",
    "checkpoint",
    "recovery",
    "hybrid",
    "faults",
    "scenarios",
    "campaign",
    "store",
    "results",
)

#: wrapper kinds: plain call, call that may return a generator, call that
#: also records a raw span.
CALL, GENERATOR, SPAN = "call", "generator", "span"

Boundary = Tuple[str, Any, str, str]  # (layer, owner, attribute, kind)


def _with_subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found


def _defined(layer: str, root: type, names: Tuple[str, ...], kind: str = CALL) -> List[Boundary]:
    """``names`` on every class of ``root``'s hierarchy that defines them itself."""
    return [
        (layer, cls, name, kind)
        for cls in _with_subclasses(root)
        for name in names
        if name in vars(cls)
    ]


def boundaries() -> List[Boundary]:
    """The boundary functions of every layer (imports the whole program)."""
    from repro.campaign import cli, jobs, runner, store
    from repro.core.message_log import SenderLog
    from repro.core.recovery_process import RecoveryOrchestrator
    from repro.core.rpp import RPPTable
    from repro.faults import montecarlo
    from repro.faults import trace as fault_trace
    from repro.ftprotocols import registry  # noqa: F401 -- loads every protocol class
    from repro.ftprotocols.base import ClusteredProtocolBase
    from repro import fslock
    from repro.results.query import ResultSet
    from repro.results.run import RunResult
    from repro.scenarios.spec import ScenarioSpec
    from repro.simulator.calibration import CalibrationCache
    from repro.simulator.channel import Transport
    from repro.simulator.communicator import Communicator
    from repro.simulator.engine import COMPILED_CORE, SimulationEngine
    from repro.simulator.hybrid import HybridDirector
    from repro.simulator.network import NetworkModel, RoutedNetworkModel
    from repro.simulator.process import RankProcess
    from repro.simulator.protocol_api import ControlPlane, ProtocolHooks
    from repro.simulator.simulation import Simulation
    from repro.simulator.stable_storage import CheckpointRecord, StableStorage
    from repro.topology.contention import ContentionModel
    from repro.topology.topology import Topology
    from repro.workloads.base import Application

    # The package re-exports the function under the module's own name.
    scenario_build = importlib.import_module("repro.scenarios.build")
    found: List[Boundary] = []
    # A compiled (mypyc) engine class cannot be patched from outside.
    if not COMPILED_CORE:
        found += [("engine", SimulationEngine, name, CALL)
                  for name in ("run", "schedule", "schedule_at", "schedule_many")]
    found += [("process", RankProcess, name, CALL)
              for name in ("post_receive", "deliver_message", "start")]
    found += [("process", Simulation, name, CALL)
              for name in ("initiate_send", "initiate_isend", "on_app_delivery")]
    found.append(("process", Simulation, "run", SPAN))
    found += [("process", Communicator, name, GENERATOR)
              for name in ("barrier", "bcast", "reduce", "allreduce", "gather",
                           "allgather", "scatter", "alltoall")]
    found.append(("channel", Transport, "transmit", CALL))
    found += _defined("channel", NetworkModel, ("transfer_time", "piggyback_cost"))
    found += [("topology", RoutedNetworkModel, "routed_arrival", CALL),
              ("topology", ContentionModel, "reserve", CALL),
              ("topology", Topology, "route", CALL)]
    found += _defined("protocol", ProtocolHooks,
                      ("on_app_send", "on_app_deliver", "on_message_arrival"))
    found.append(("protocol", ControlPlane, "send", CALL))
    found += [("message_log", SenderLog, name, CALL)
              for name in ("add", "entries_for", "purge_acknowledged")]
    found += [("message_log", RPPTable, name, CALL) for name in ("observe", "orphan_entries")]
    found += _defined("checkpoint", ProtocolHooks, ("on_iteration_boundary",), GENERATOR)
    found += _defined("checkpoint", ProtocolHooks,
                      ("on_checkpoint_request", "fast_forward_checkpoint",
                       "fast_forward_cluster_checkpoint"))
    found.append(("checkpoint", StableStorage, "save", CALL))
    found += _defined("checkpoint", Application, ("snapshot_state", "restore_state"))
    found.append(("checkpoint", CheckpointRecord, "restore_app_state", CALL))
    found += _defined("recovery", ProtocolHooks, ("on_failure",))
    found.append(("recovery", ClusteredProtocolBase, "rollback_clusters", CALL))
    found += [("recovery", Simulation, name, CALL)
              for name in ("kill_ranks", "restart_rank", "replay_message")]
    found.append(("recovery", RecoveryOrchestrator, "handle", CALL))
    found.append(("hybrid", HybridDirector, "run", SPAN))
    found.append(("hybrid", montecarlo, "prewarm_calibration", SPAN))
    found += [("hybrid", CalibrationCache, "get", CALL),
              ("hybrid", CalibrationCache, "put", CALL),
              ("hybrid", CalibrationCache, "save", SPAN)]
    found.append(("faults", fault_trace, "generate_trace", CALL))
    found += [("faults", montecarlo, name, SPAN)
              for name in ("run_montecarlo", "replica_specs", "aggregate_metrics")]
    found += [("scenarios", scenario_build, "build", SPAN),
              ("scenarios", scenario_build, "resolve_clusters", CALL)]
    found += [("scenarios", ScenarioSpec, name, CALL)
              for name in ("spec_hash", "to_dict", "from_dict")]
    found += [("campaign", runner, "run_campaign", SPAN),
              ("campaign", runner, "run_spec", SPAN),
              ("campaign", jobs, "jsonify", CALL)]
    found += [("store", store.ResultsStore, "__init__", SPAN),
              ("store", store.ResultsStore, "save", SPAN),
              ("store", store.ResultsStore, "get", CALL),
              ("store", store.ResultsStore, "put", CALL),
              ("store", fslock, "atomic_write_json", SPAN)]
    found += [("results", ResultSet, name, SPAN)
              for name in ("from_store", "where", "group_by", "pivot")]
    found += [("results", RunResult, "from_record", CALL),
              ("results", cli, "main", SPAN)]
    return found


class Tracer:
    """Per-layer call counts and self times of one traced body."""

    def __init__(self) -> None:
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        #: raw spans of functions at replica level and above.
        self.spans: List[Dict[str, Any]] = []
        self.total_s = 0.0
        self.harness_self_s = 0.0
        #: one child-time accumulator per open span; the root is the harness.
        self._stack: List[List[float]] = [[0.0]]
        self._open_spans: List[int] = []
        self._origin = 0.0
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------- wrappers
    def _wrap(self, fn: Callable[..., Any], layer: str, kind: str,
              label: str) -> Callable[..., Any]:
        index = LAYERS.index(layer)
        calls, self_s, stack, now = self.calls, self.self_s, self._stack, clock

        def timed(*args: Any, **kwargs: Any) -> Any:
            child = [0.0]
            stack.append(child)
            started = now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = now() - started
                stack.pop()
                calls[index] += 1
                self_s[index] += elapsed - child[0]
                stack[-1][0] += elapsed

        if kind == CALL:
            return timed
        if kind == GENERATOR:
            def timed_generator(*args: Any, **kwargs: Any) -> Any:
                result = timed(*args, **kwargs)
                if result is not None and hasattr(result, "send"):
                    return self._resumptions(result, index)
                return result

            return timed_generator

        spans, open_spans = self.spans, self._open_spans

        def timed_span(*args: Any, **kwargs: Any) -> Any:
            span = {"id": len(spans), "parent": open_spans[-1] if open_spans else None,
                    "layer": layer, "name": label, "start_s": now() - self._origin}
            spans.append(span)
            open_spans.append(span["id"])
            try:
                return timed(*args, **kwargs)
            finally:
                open_spans.pop()
                span["end_s"] = now() - self._origin

        return timed_span

    def _resumptions(self, generator: Any, index: int) -> Iterator[Any]:
        """Delegate to ``generator``, timing each resumption as a span of the layer."""
        self_s, stack, now = self.self_s, self._stack, clock
        resume, argument = generator.send, None
        while True:
            child = [0.0]
            stack.append(child)
            started = now()
            try:
                yielded = resume(argument)
            except StopIteration as stop:
                return stop.value
            finally:
                elapsed = now() - started
                stack.pop()
                self_s[index] += elapsed - child[0]
                stack[-1][0] += elapsed
            try:
                argument = yield yielded
                resume = generator.send
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # forwarded into the wrapped generator
                resume, argument = generator.throw, exc

    # ------------------------------------------------------ install / remove
    def install(self) -> None:
        """Replace every boundary function by its timing wrapper."""
        functions: Dict[int, Tuple[Any, Any]] = {}
        for layer, owner, attribute, kind in boundaries():
            original = vars(owner)[attribute]
            label = f"{owner.__name__}.{attribute}"
            if not isinstance(owner, type):
                functions[id(original)] = (original, self._wrap(original, layer, kind, label))
            elif isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self._wrap(original.__func__, layer, kind, label))
                self._patch(owner, attribute, original, wrapped)
            else:
                self._patch(owner, attribute, original, self._wrap(original, layer, kind, label))
        # Module-level functions: a module that imported one by name holds its
        # own reference, so every binding in every loaded module is patched.
        for module in list(sys.modules.values()):
            for name, value in list(getattr(module, "__dict__", {}).items()):
                original, wrapped = functions.get(id(value), (None, None))
                if original is value and original is not None:
                    self._patch(module, name, original, wrapped)

    def _patch(self, owner: Any, attribute: str, original: Any, wrapped: Any) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        """Put every original object back (the exact object, not a copy)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ run
    def run(self, body: Callable[[], Any]) -> Any:
        """Run ``body`` traced; wrappers are removed even when it raises."""
        self.install()
        try:
            self._origin = started = clock()
            outcome = body()
            self.total_s = clock() - started
        finally:
            self.uninstall()
        self.harness_self_s = self.total_s - self._stack[0][0]
        return outcome

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {calls, self_s, share}}`` of the traced body."""
        total = self.total_s or 1.0
        return {
            layer: {"calls": self.calls[i], "self_s": self.self_s[i],
                    "share": self.self_s[i] / total}
            for i, layer in enumerate(LAYERS)
        }

    def coverage_frac(self) -> Optional[float]:
        """Share of the traced wall time spent inside some named layer."""
        return 1.0 - self.harness_self_s / self.total_s if self.total_s else None
