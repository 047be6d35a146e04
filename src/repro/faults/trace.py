"""Replayable failure traces: generated ahead of simulation, frozen as data.

A :class:`FailureTrace` is the concrete outcome of a
:class:`~repro.faults.spec.FaultModelSpec` for one scenario: an ordered
list of timed group failures (:class:`TraceEntry`), JSON-round-trippable so
a drawn trace can be archived, diffed, shipped in a bug report and replayed
verbatim later (``distribution="trace"`` with ``params["path"]``).

Generation is a pure function of spec content
(:func:`generate_trace`):

* the failing *units* come from the spec's ``scope`` -- every rank, every
  node, or every physical cluster of the scenario's PR-2
  :class:`~repro.topology.topology.Topology` (node/cluster scope is how
  spatially-correlated concurrent failures are expressed: the whole unit
  fails at one instant);
* each unit runs an independent seeded renewal process
  (:mod:`repro.faults.distributions`), its MTBF optionally scaled by the
  ``mtbf_scale`` map, drawing failure times inside ``[0, horizon_s]``;
* the per-unit draws are merged in deterministic ``(time, ranks)`` order
  and truncated to ``max_failures``.

The trace materialises into frozen
:class:`~repro.simulator.failures.FailureEvent` objects at scenario build
time (:meth:`FailureTrace.to_failure_events`), so the simulator itself
never sees the stochastic layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.faults.distributions import derive_rng, make_distribution
from repro.fslock import atomic_write_json
from repro.faults.spec import FaultModelSpec
from repro.simulator.failures import FailureEvent, validate_failure_group
from repro.topology import Topology

#: hard cap on generated entries -- a fault model whose MTBF is tiny next to
#: its horizon is a configuration bug, not a workload.
MAX_TRACE_ENTRIES = 100_000

TRACE_VERSION = 1


@dataclass(frozen=True)
class TraceEntry:
    """One timed group failure: ``ranks`` fail together at ``time``."""

    time: float
    ranks: Tuple[int, ...]
    #: provenance label of the failing unit (``"rank:3"``, ``"node:1"``,
    #: ``"cluster:0"``, or ``"trace"`` for replayed entries).
    unit: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        validate_failure_group("trace entry", self.ranks, self.time)
        if self.time is None:
            raise ConfigurationError("a trace entry needs a time")

    def to_dict(self) -> Dict[str, Any]:
        return {"time": self.time, "ranks": list(self.ranks), "unit": self.unit}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceEntry":
        return cls(
            time=float(data["time"]),
            ranks=tuple(data["ranks"]),
            unit=str(data.get("unit", "")),
        )


class FailureTrace:
    """An ordered, JSON-round-trippable list of timed group failures."""

    def __init__(
        self,
        entries: Sequence[TraceEntry],
        metadata: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.entries: Tuple[TraceEntry, ...] = tuple(entries)
        #: free-form provenance (the generating fault-model dict, nprocs...).
        self.metadata: Dict[str, Any] = dict(metadata or {})

    # ------------------------------------------------------------- container
    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailureTrace):
            return NotImplemented
        return self.entries == other.entries and self.metadata == other.metadata

    def __repr__(self) -> str:
        return f"FailureTrace({len(self.entries)} failures)"

    @property
    def failure_times(self) -> List[float]:
        return [entry.time for entry in self.entries]

    # -------------------------------------------------------------- json i/o
    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": TRACE_VERSION,
            "metadata": dict(self.metadata),
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FailureTrace":
        version = data.get("version", TRACE_VERSION)
        if version != TRACE_VERSION:
            raise ConfigurationError(
                f"unsupported failure-trace version {version!r} "
                f"(this build reads version {TRACE_VERSION})"
            )
        entries = [TraceEntry.from_dict(e) for e in data.get("entries", ())]
        return cls(entries, metadata=data.get("metadata"))

    def to_json(self, **dumps_kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "FailureTrace":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str) -> "FailureTrace":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    # ------------------------------------------------------------ simulation
    def to_failure_events(self) -> List[FailureEvent]:
        """Materialise into the simulator's frozen failure events."""
        return [FailureEvent(ranks=entry.ranks, time=entry.time) for entry in self.entries]


# ------------------------------------------------------------------- units
def failure_units(
    fault: FaultModelSpec, nprocs: int, topology: Optional[Topology] = None
) -> List[Tuple[str, Tuple[int, ...]]]:
    """The independently-failing units of a scenario: ``(label, ranks)``.

    ``rank`` scope works with or without a topology (each rank is its own
    unit); ``node`` and ``cluster`` scope group the ranks that share a
    physical node / cluster of the scenario's topology and therefore
    require one.
    """
    if fault.scope == "rank":
        return [(f"rank:{rank}", (rank,)) for rank in range(nprocs)]
    if topology is None:
        raise ConfigurationError(
            f"fault scope {fault.scope!r} groups ranks by physical "
            f"{fault.scope}: the scenario needs a network.topology"
        )
    if topology.nprocs != nprocs:
        raise ConfigurationError(
            f"fault model topology covers {topology.nprocs} ranks, "
            f"scenario has {nprocs}"
        )
    if fault.scope == "node":
        groups = topology.ranks_by_node()
        label = "node"
    else:
        groups = topology.ranks_by_cluster()
        label = "cluster"
    return [
        (f"{label}:{index}", tuple(ranks))
        for index, ranks in enumerate(groups)
        if ranks
    ]


# --------------------------------------------------------------- generation
def generate_trace(
    fault: FaultModelSpec, nprocs: int, topology: Optional[Topology] = None
) -> FailureTrace:
    """Draw the failure trace a fault model describes, ahead of simulation.

    Pure function of spec content: every RNG stream is keyed by the fault
    model's :meth:`~repro.faults.spec.FaultModelSpec.stream_key` (which
    includes ``seed`` and ``replica``), the rank count and the unit label
    -- never by global RNG state.
    """
    if nprocs < 1:
        raise ConfigurationError("a fault model needs nprocs >= 1")
    metadata = {"fault_model": fault.to_dict(), "nprocs": nprocs}
    if fault.distribution == "trace":
        entries = _replayed_entries(fault, nprocs)
        return FailureTrace(_finish(entries, fault), metadata=metadata)

    spec_key = fault.stream_key()
    # mtbf_scale was validated and key-normalised by FaultModelSpec.
    scale = fault.params.get("mtbf_scale") or {}
    base = make_distribution(fault.distribution, fault.params)
    horizon = float(fault.horizon_s)

    entries: List[TraceEntry] = []
    for label, ranks in failure_units(fault, nprocs, topology):
        # mtbf_scale accepts the full label ("node:3") or its bare index
        # ("3"), whichever reads better in the sweep at hand.
        factor = scale.get(label, scale.get(label.split(":", 1)[-1], 1.0))
        # scaled() also rewinds stateful distributions (replay), so every
        # unit samples a private, freshly-wound copy.
        distribution = base.scaled(float(factor))
        rng = derive_rng("repro.faults.trace", spec_key, nprocs, label)
        now = 0.0
        while True:
            step = distribution.sample(rng)
            if step is None:
                break
            now += step
            if now > horizon:
                break
            entries.append(TraceEntry(time=now, ranks=ranks, unit=label))
            if len(entries) > MAX_TRACE_ENTRIES:
                raise ConfigurationError(
                    f"fault model draws more than {MAX_TRACE_ENTRIES} failures "
                    f"inside horizon {horizon:g}s; raise mtbf_s or lower the "
                    "horizon (this is a configuration error, not a workload)"
                )
    return FailureTrace(_finish(entries, fault), metadata=metadata)


def _finish(entries: List[TraceEntry], fault: FaultModelSpec) -> List[TraceEntry]:
    """Deterministic merge order + the max_failures truncation."""
    entries = sorted(entries, key=lambda e: (e.time, e.ranks))
    if fault.max_failures is not None:
        entries = entries[: fault.max_failures]
    return entries


def _replayed_entries(fault: FaultModelSpec, nprocs: int) -> List[TraceEntry]:
    """Entries of a ``distribution="trace"`` model: replayed verbatim.

    ``params["events"]`` holds inline ``{"time", "ranks"}`` entries;
    ``params["path"]`` names a :meth:`FailureTrace.save` file.  Exactly one
    must be present.  Note that only ``events`` is covered by the spec hash
    -- a path is a pointer, and editing the file behind an unchanged path
    will not invalidate cached campaign records.
    """
    events = fault.params.get("events")
    path = fault.params.get("path")
    if (events is None) == (path is None):
        raise ConfigurationError(
            "fault distribution 'trace' needs exactly one of params['events'] "
            "(inline entries) or params['path'] (a saved FailureTrace file)"
        )
    if path is not None:
        source = FailureTrace.load(path).entries
    else:
        source = tuple(
            TraceEntry(
                time=float(e["time"]), ranks=tuple(e["ranks"]),
                unit=str(e.get("unit", "trace")),
            )
            if isinstance(e, Mapping)
            else TraceEntry(time=float(e[0]), ranks=tuple(e[1]), unit="trace")
            for e in events
        )
    out: List[TraceEntry] = []
    for entry in source:
        if not entry.ranks:
            raise ConfigurationError("a replayed failure entry needs ranks")
        bad = [r for r in entry.ranks if r < 0 or r >= nprocs]
        if bad:
            raise ConfigurationError(
                f"replayed failure at t={entry.time:g} names ranks {bad} "
                f"outside 0..{nprocs - 1}"
            )
        if fault.horizon_s is not None and entry.time > fault.horizon_s:
            continue
        out.append(entry)
    return out
