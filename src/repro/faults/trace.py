"""Failure traces: drawn ahead of simulation, as plain failure events.

A :class:`FailureTrace` is the concrete outcome of a
:class:`~repro.faults.spec.FaultModelSpec` for one scenario: the timed
:class:`~repro.simulator.failures.FailureEvent` values it draws, in strike
order.  A draw is kept or replayed as an ordinary scenario:
``dataclasses.replace(spec, fault_model=None, failures=tuple(trace))`` is
hashed and round-trips through JSON like any other spec.

Generation is a pure function of spec content
(:func:`generate_trace`):

* the failing *units* come from the spec's ``scope`` -- every rank, every
  node, or every physical cluster of the scenario's
  :class:`~repro.topology.topology.Topology` (node/cluster scope is how
  spatially-correlated concurrent failures are expressed: the whole unit
  fails at one instant);
* each unit runs an independent seeded renewal process
  (:mod:`repro.faults.distributions`), its MTBF optionally scaled by the
  ``mtbf_scale`` map, drawing failure times inside ``[0, horizon_s]``;
* the per-unit draws are merged in deterministic ``(time, ranks)`` order
  and truncated to ``max_failures``.

The simulator itself never sees the stochastic layer: it receives the
events like any explicit failure list.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.distributions import derive_rng, make_distribution
from repro.faults.spec import FaultModelSpec
from repro.simulator.failures import FailureEvent
from repro.topology import Topology

#: hard cap on generated entries -- a fault model whose MTBF is tiny next to
#: its horizon is a configuration bug, not a workload.
MAX_TRACE_ENTRIES = 100_000


class FailureTrace(Tuple[FailureEvent, ...]):
    """The timed failure events one fault model draws, in strike order."""

    @property
    def failure_times(self) -> List[float]:
        return [event.time for event in self]


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
    units = failure_units(fault, nprocs, topology)
    # mtbf_scale was validated and key-normalised by FaultModelSpec; its keys
    # are full labels ("node:3") or bare indices ("3"), whichever reads
    # better in the sweep at hand, and each must name a unit.
    scale = fault.params.get("mtbf_scale") or {}
    if scale:
        labels = [label for label, _ in units]
        unmatched = sorted(
            set(scale) - set(labels) - {label.split(":", 1)[1] for label in labels}
        )
        if unmatched:
            shown = labels if len(labels) <= 8 else labels[:4] + ["..."] + labels[-2:]
            raise ConfigurationError(
                f"fault model mtbf_scale keys {unmatched} match no failing unit; "
                f"valid labels (or their bare indices): {', '.join(shown)}"
            )
    spec_key = fault.stream_key()
    base = make_distribution(fault.distribution, fault.params)
    horizon = float(fault.horizon_s)

    events: List[FailureEvent] = []
    for label, ranks in units:
        factor = scale.get(label, scale.get(label.split(":", 1)[1], 1.0))
        distribution = base.scaled(float(factor))
        rng = derive_rng("repro.faults.trace", spec_key, nprocs, label)
        now = distribution.sample(rng)
        while now <= horizon:
            events.append(FailureEvent(ranks=ranks, time=now))
            if len(events) > MAX_TRACE_ENTRIES:
                raise ConfigurationError(
                    f"fault model draws more than {MAX_TRACE_ENTRIES} failures "
                    f"inside horizon {horizon:g}s; raise mtbf_s or lower the "
                    "horizon (this is a configuration error, not a workload)"
                )
            now += distribution.sample(rng)
    # Deterministic merge order, then the max_failures truncation.
    events.sort(key=lambda event: (event.time, event.ranks))
    return FailureTrace(events[: fault.max_failures])
