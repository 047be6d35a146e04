"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a frozen, JSON-round-trippable description of one
simulated run: the workload (NAS kernel, NetPIPE ping-pong, ring, stencil,
master-worker -- plus its parameters), the fault-tolerance protocol (by
:mod:`repro.ftprotocols.registry` name), how the ranks are clustered, the
network model, the failure schedule, and :class:`~repro.simulator.simulation.
SimulationConfig` overrides.

Specs are plain data: picklable by construction (so campaigns can fan them
out over ``multiprocessing`` workers) and hashable by content (so completed
results can be cached by :func:`ScenarioSpec.spec_hash`).  The factory that
turns a spec into a live :class:`~repro.simulator.simulation.Simulation`
lives in :mod:`repro.scenarios.build`; the grid expander for parameter
sweeps lives in :mod:`repro.scenarios.sweep`.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.faults.spec import FaultModelSpec
from repro.simulator.failures import FailureEvent


def _freeze_mapping(value: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """Normalise a params mapping to a plain dict (shallow copy)."""
    return dict(value) if value else {}


#: values :func:`_plain` returns as they are (``deepcopy`` would too).
_JSON_ATOMS = frozenset({str, int, float, bool, type(None)})
#: dataclass type -> its field names, in declaration order.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _plain(value: Any) -> Any:
    """``dataclasses.asdict`` of one value, without deep-copying JSON atoms.

    Dataclasses become dicts of their fields, lists / tuples / dicts are
    rebuilt (so the result never aliases the spec), atoms are returned as
    they are, and anything else is deep-copied -- what ``asdict`` does,
    namedtuples and container subclasses included.
    """
    kind = type(value)
    if kind in _JSON_ATOMS:
        return value
    if kind is dict:
        return {
            (key if type(key) is str else _plain(key)):
            (item if type(item) in _JSON_ATOMS else _plain(item))
            for key, item in value.items()
        }
    if kind is list or kind is tuple:
        return kind([item if type(item) in _JSON_ATOMS else _plain(item) for item in value])
    names = _FIELD_NAMES.get(kind)
    if names is None:
        if not hasattr(kind, "__dataclass_fields__"):
            if isinstance(value, tuple) and hasattr(value, "_fields"):
                return kind(*[_plain(item) for item in value])
            if isinstance(value, (list, tuple)):
                return kind(_plain(item) for item in value)
            if isinstance(value, dict):
                return kind((_plain(key), _plain(item)) for key, item in value.items())
            return copy.deepcopy(value)
        names = _FIELD_NAMES[kind] = tuple(f.name for f in dataclasses.fields(value))
    data = {}
    for name in names:
        item = getattr(value, name)
        data[name] = item if type(item) in _JSON_ATOMS else _plain(item)
    return data


#: the encoder of :func:`spec_hash_of` (``json.dumps`` with these options).
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def spec_hash_of(data: Mapping[str, Any]) -> str:
    """Content hash of a :meth:`ScenarioSpec.to_dict` form: what
    :meth:`ScenarioSpec.spec_hash` returns, for a caller that already holds
    the dict."""
    return hashlib.sha256(_canonical(data).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class WorkloadSpec:
    """Which application runs, at what size.

    ``kind`` is a key of :data:`repro.scenarios.build.WORKLOAD_FACTORIES`
    (``"bt"``/``"cg"``/... for the NAS kernels, ``"netpipe"``, ``"ring"``,
    ``"pipeline"``, ``"stencil1d"``, ``"stencil2d"``, ``"master-worker"``);
    ``params`` holds the workload's own keyword arguments
    (``message_scale``, ``sizes``, ``halo_bytes``, ...).
    """

    kind: str
    nprocs: int
    iterations: int = 1
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_mapping(self.params))
        if self.nprocs < 1:
            raise ConfigurationError(f"workload {self.kind!r}: nprocs must be >= 1")


@dataclass(frozen=True)
class ClusteringSpec:
    """How ranks are grouped into clusters for the clustered protocols.

    ``method`` is one of

    * ``"none"``      -- protocol default (single cluster / no clustering),
    * ``"explicit"``  -- use :attr:`clusters` verbatim,
    * ``"block"``     -- :func:`repro.clustering.partitioner.block_partition`,
    * ``"partition"`` -- graph-partition the workload's analytic
      communication matrix (``matrix="iteration"`` or ``"full"`` selects
      :meth:`communication_matrix` vs :meth:`full_run_matrix`),
    * ``"preset"``    -- the paper's Table I cluster count for the NAS
      kernel, then graph partitioning.

    The ``topology*`` methods place protocol clusters relative to the
    scenario's physical :class:`TopologySpec` (they require a non-flat
    ``network.topology``):

    * ``"topology"``            -- one protocol cluster per physical cluster
      (aligned placement: inter-cluster logging traffic is exactly the
      traffic crossing the oversubscribed fabric),
    * ``"topology-misaligned"`` -- deal ranks round-robin across
      ``num_clusters`` (default: the physical cluster count) so every
      protocol cluster straddles every physical cluster (the adversarial
      placement).
    """

    method: str = "none"
    num_clusters: Optional[int] = None
    clusters: Optional[Tuple[Tuple[int, ...], ...]] = None
    balance_tolerance: float = 1.1
    matrix: str = "iteration"

    _METHODS = (
        "none", "explicit", "block", "partition", "preset",
        "topology", "topology-misaligned",
    )

    def __post_init__(self) -> None:
        if self.method not in self._METHODS:
            raise ConfigurationError(
                f"unknown clustering method {self.method!r}; expected one of {self._METHODS}"
            )
        if self.clusters is not None:
            object.__setattr__(
                self, "clusters", tuple(tuple(int(r) for r in c) for c in self.clusters)
            )
        if self.method == "explicit" and self.clusters is None:
            raise ConfigurationError("clustering method 'explicit' needs clusters")
        if self.method in ("block", "partition") and self.num_clusters is None:
            raise ConfigurationError(
                f"clustering method {self.method!r} needs num_clusters"
            )


@dataclass(frozen=True)
class ProtocolSpec:
    """Which fault-tolerance protocol runs, with which options.

    ``name`` is a :func:`repro.ftprotocols.registry.make_protocol` name
    (``"native"``, ``"hydee"``, ``"hydee-log-all"``, ``"coordinated"``,
    ``"message-logging"``, ``"hybrid-event-logging"``) or ``"none"`` for a
    bare run without any protocol hooks; ``options`` are forwarded to the
    registry factory (``checkpoint_interval``, ``piggyback_bytes``, ...).
    """

    name: str = "none"
    options: Dict[str, Any] = field(default_factory=dict)
    clustering: ClusteringSpec = field(default_factory=ClusteringSpec)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", _freeze_mapping(self.options))


@dataclass(frozen=True)
class TopologySpec:
    """Which physical interconnect topology carries the messages.

    ``preset`` is a key of :data:`repro.topology.TOPOLOGY_PRESETS`
    (``"flat"``, ``"hierarchical"``, ``"fat-tree-2level"``,
    ``"cluster-per-node"``); ``params`` holds the preset's keyword arguments
    (``ranks_per_node``, ``nodes_per_cluster``, ``oversubscription``,
    per-tier latencies/bandwidths).  Every parameter is sweepable like any
    other spec path, e.g. ``network.topology.params.oversubscription``.

    The ``"flat"`` preset is the degenerate single-tier topology: routing
    over it reproduces the flat point-to-point model exactly.
    """

    preset: str = "flat"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_mapping(self.params))
        from repro.topology import available_presets

        if self.preset not in available_presets():
            raise ConfigurationError(
                f"unknown topology preset {self.preset!r}; available: "
                f"{', '.join(available_presets())}"
            )


@dataclass(frozen=True)
class NetworkSpec:
    """Which analytic network model carries the messages.

    ``model`` is a key of :data:`repro.scenarios.build.NETWORK_MODELS`;
    ``overrides`` replaces individual model fields (``bandwidth_bytes_per_s``,
    ``memcpy_overlap_fraction``, ...).  ``topology`` (optional) routes every
    message over a hierarchical :class:`TopologySpec` with deterministic
    link contention; ``None`` keeps the flat point-to-point behaviour and is
    omitted from the serialised form, so pre-topology spec hashes are
    unchanged.
    """

    model: str = "myrinet-mx"
    overrides: Dict[str, Any] = field(default_factory=dict)
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "overrides", _freeze_mapping(self.overrides))
        if isinstance(self.topology, Mapping):
            object.__setattr__(self, "topology", TopologySpec(**self.topology))


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative simulation scenario.

    ``config`` holds :class:`~repro.simulator.simulation.SimulationConfig`
    overrides by field name; ``record_trace_events`` defaults to ``False``
    (campaign sweeps skip per-event trace allocation) and must be set
    explicitly by scenarios that compare send sequences.  ``tags`` is
    free-form metadata carried verbatim into campaign records.
    """

    name: str
    workload: WorkloadSpec
    protocol: ProtocolSpec = field(default_factory=ProtocolSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    failures: Tuple[FailureEvent, ...] = ()
    #: stochastic fault model (:mod:`repro.faults`): failures are *drawn*
    #: from a seeded distribution at build() time instead of listed by
    #: hand.  Mutually exclusive with ``failures``; ``None`` is omitted
    #: from the serialised form, so pre-fault-model spec hashes are
    #: unchanged.
    fault_model: Optional[FaultModelSpec] = None
    #: execution strategy: ``"exact"`` runs the full discrete-event loop,
    #: ``"hybrid"`` fast-forwards failure-free epochs analytically and drops
    #: into exact DES only around failures (see
    #: :mod:`repro.simulator.hybrid`).  ``"exact"`` is omitted from the
    #: serialised form, so pre-hybrid spec hashes are unchanged.
    execution: str = "exact"
    config: Dict[str, Any] = field(default_factory=dict)
    tags: Dict[str, Any] = field(default_factory=dict)

    _EXECUTIONS = ("exact", "hybrid")

    def __post_init__(self) -> None:
        object.__setattr__(self, "failures", tuple(self.failures))
        object.__setattr__(self, "config", _freeze_mapping(self.config))
        object.__setattr__(self, "tags", _freeze_mapping(self.tags))
        if self.execution not in self._EXECUTIONS:
            raise ConfigurationError(
                f"unknown execution mode {self.execution!r}; "
                f"expected one of {self._EXECUTIONS}"
            )
        for failure in self.failures:
            if failure.rank_trigger is not None and failure.rank_trigger not in failure.ranks:
                # The declarative layer requires the trigger to be one of the
                # failing ranks: only then can the injector always re-target
                # the strike if the trigger dies before its iteration boundary.
                raise ConfigurationError(
                    f"scenario {self.name!r}: failure rank_trigger "
                    f"{failure.rank_trigger} is not one of its ranks {list(failure.ranks)}"
                )
        if isinstance(self.fault_model, Mapping):
            object.__setattr__(self, "fault_model", FaultModelSpec(**self.fault_model))
        if self.fault_model is not None and self.failures:
            raise ConfigurationError(
                f"scenario {self.name!r} declares both an explicit failure "
                "list and a fault_model; failures come from exactly one "
                "source (drop one of the two)"
            )

    # -------------------------------------------------------------- json i/o
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data representation (suitable for ``json.dump``).

        Equal to ``dataclasses.asdict(self)`` less the three omissions
        below, and like it never aliases the spec: mutating the result
        changes neither the spec nor its :meth:`spec_hash`.
        """
        data: Dict[str, Any] = _plain(self)
        # Specs without a topology serialise exactly as before the topology
        # layer existed, keeping their spec hashes (= cache keys) stable.
        if data["network"].get("topology") is None:
            del data["network"]["topology"]
        # Same contract for the fault-model layer: specs without one keep
        # their pinned pre-fault-model hashes.
        if data.get("fault_model") is None:
            data.pop("fault_model", None)
        # And for the execution layer: exact-mode specs keep their
        # pre-hybrid hashes.
        if data.get("execution") == "exact":
            del data["execution"]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        data = dict(data)
        if "workload" not in data:
            raise ConfigurationError(
                "a scenario spec needs a 'workload' section "
                f"(got keys: {sorted(data)})"
            )
        workload = WorkloadSpec(**data.pop("workload"))
        protocol_data = dict(data.pop("protocol", {}) or {})
        clustering_data = protocol_data.pop("clustering", None)
        clustering = (
            ClusteringSpec(**clustering_data) if clustering_data else ClusteringSpec()
        )
        protocol = ProtocolSpec(clustering=clustering, **protocol_data)
        network_data = data.pop("network", None)
        network = NetworkSpec(**network_data) if network_data else NetworkSpec()
        failures = tuple(FailureEvent(**f) for f in data.pop("failures", ()) or ())
        fault_model_data = data.pop("fault_model", None)
        fault_model = (
            FaultModelSpec(**fault_model_data) if fault_model_data else None
        )
        return cls(
            workload=workload,
            protocol=protocol,
            network=network,
            failures=failures,
            fault_model=fault_model,
            **data,
        )

    def to_json(self, **dumps_kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # --------------------------------------------------------------- hashing
    def canonical_json(self) -> str:
        """Deterministic serialisation used as the cache identity."""
        return _canonical(self.to_dict())

    def spec_hash(self) -> str:
        """Content hash of the spec (cache key of campaign result stores)."""
        return spec_hash_of(self.to_dict())

    def calibration_key(self) -> str:
        """Content hash of the spec's *failure-free timing* identity.

        Hybrid warm-up calibration (see :mod:`repro.simulator.calibration`)
        depends only on what the ranks do between failures: workload,
        protocol, clustering, network and config.  The failure draw
        (``failures``/``fault_model``), the scenario ``name``, free-form
        ``tags`` and the ``execution`` switch itself do not change iteration
        timing, so they are stripped before hashing -- Monte Carlo replicas
        and fault sweeps of one scenario share a single calibration entry,
        while any timing-relevant change re-keys it.
        """
        data = self.to_dict()
        for irrelevant in ("name", "failures", "fault_model", "execution", "tags"):
            data.pop(irrelevant, None)
        return spec_hash_of(data)

    # ------------------------------------------------------------------ misc
    def with_name(self, name: str) -> "ScenarioSpec":
        return dataclasses.replace(self, name=name)

    def describe(self) -> str:
        parts = [
            self.workload.kind,
            f"np={self.workload.nprocs}",
            f"it={self.workload.iterations}",
            self.protocol.name,
        ]
        if self.failures:
            parts.append(f"failures={len(self.failures)}")
        if self.fault_model is not None:
            parts.append(f"faults[{self.fault_model.describe()}]")
        return " ".join(parts)


def load_specs(data: Any) -> Tuple[ScenarioSpec, ...]:
    """Parse a JSON value (one spec dict or a list of them) into specs."""
    if isinstance(data, Mapping):
        return (ScenarioSpec.from_dict(data),)
    if isinstance(data, Sequence) and not isinstance(data, (str, bytes)):
        return tuple(ScenarioSpec.from_dict(item) for item in data)
    raise ConfigurationError(
        "expected a scenario spec object or a list of them, "
        f"got {type(data).__name__}"
    )
