"""Declarative stochastic fault models: :class:`FaultModelSpec`.

A :class:`FaultModelSpec` describes *how failures are drawn* instead of
listing them by hand: a seeded inter-arrival distribution
(:mod:`repro.faults.distributions`), the spatial scope of each failure
(single rank, whole node, whole physical cluster -- the latter two drawn
from the scenario's :class:`~repro.topology.topology.Topology`), the time
horizon inside which failures may strike, and the ``(seed, replica)`` pair
that makes every draw replayable.

The spec is frozen, JSON-round-trippable and sweepable like every other
piece of a :class:`~repro.scenarios.spec.ScenarioSpec` (e.g. sweep
``fault_model.params.mtbf_s`` or ``fault_model.seed``).  It is *plan, not
outcome*: :func:`repro.faults.trace.generate_trace` draws the concrete
:class:`~repro.faults.trace.FailureTrace` -- plain
:class:`~repro.simulator.failures.FailureEvent` values -- ahead of
simulation, at :func:`repro.scenarios.build.build` time.

Seeding contract
----------------
Every random stream is derived from the spec's own content -- the canonical
JSON of the fault model (which contains ``seed`` and ``replica``), the rank
count and the failing unit's label -- via SHA-256, never from global RNG
state.  Two consequences:

* the same spec always generates byte-identical traces, in any process, so
  serial and ``--workers N`` Monte Carlo campaigns stay byte-identical;
* bumping ``replica`` (what :func:`repro.faults.montecarlo.replica_specs`
  does) re-seeds every stream, so replicas are independent draws that are
  each individually cacheable by spec hash.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.errors import ConfigurationError

#: spatial scope of one drawn failure (what fails together, concurrently).
SCOPES = ("rank", "node", "cluster")

#: distribution kinds accepted by :attr:`FaultModelSpec.distribution`: each
#: draws per-unit inter-arrival times (see :mod:`repro.faults.distributions`).
#: Explicit failures are not a fault model; list them in
#: :attr:`~repro.scenarios.spec.ScenarioSpec.failures`.
DISTRIBUTION_KINDS = ("exponential", "weibull", "fixed")


def _freeze_mapping(value: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    return dict(value) if value else {}


@dataclass(frozen=True)
class FaultModelSpec:
    """How a scenario's failures are drawn (instead of listed by hand).

    Attributes
    ----------
    distribution:
        One of :data:`DISTRIBUTION_KINDS`.
    params:
        Distribution parameters: ``mtbf_s`` (per-unit mean time between
        failures), ``shape`` (weibull), and the optional ``mtbf_scale``
        mapping of unit label to MTBF multiplier (per-node MTBF scaling,
        e.g. ``{"3": 0.5}`` halves unit 3's MTBF; every key must name a
        failing unit of the scenario).
    scope:
        What fails together per drawn event: one ``rank``, a whole
        ``node``, or a whole physical ``cluster``.  Node and cluster scope
        need a ``network.topology`` in the scenario.
    horizon_s:
        Failures are drawn inside ``[0, horizon_s]`` simulated seconds.
    max_failures:
        Keep only the first N drawn failures (after merging all units).
    seed / replica:
        Base seed and Monte Carlo replica index; both are part of the spec
        hash, so every replica is a distinct, individually cached scenario.
    """

    distribution: str = "exponential"
    params: Dict[str, Any] = field(default_factory=dict)
    scope: str = "rank"
    horizon_s: Optional[float] = None
    max_failures: Optional[int] = None
    seed: int = 0
    replica: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_mapping(self.params))
        if self.distribution not in DISTRIBUTION_KINDS:
            raise ConfigurationError(
                f"unknown fault distribution {self.distribution!r}; "
                f"expected one of {DISTRIBUTION_KINDS} (explicit failures "
                "belong in the scenario's `failures` list)"
            )
        if self.scope not in SCOPES:
            raise ConfigurationError(
                f"unknown fault scope {self.scope!r}; expected one of {SCOPES}"
            )
        if not isinstance(self.horizon_s, (int, float)) \
                or isinstance(self.horizon_s, bool) \
                or not math.isfinite(self.horizon_s) or self.horizon_s <= 0:
            raise ConfigurationError(
                "fault model horizon_s (failures are drawn in [0, horizon_s]) "
                f"must be a positive finite number of seconds, got {self.horizon_s!r}"
            )
        if self.max_failures is not None and (
            not isinstance(self.max_failures, int)
            or isinstance(self.max_failures, bool)
            or self.max_failures < 1
        ):
            raise ConfigurationError(
                f"fault model max_failures must be an integer >= 1, "
                f"got {self.max_failures!r}"
            )
        for name in ("seed", "replica"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ConfigurationError(
                    f"fault model {name} must be a non-negative integer, got {value!r}"
                )
        scale = self.params.get("mtbf_scale")
        if scale is not None:
            if not isinstance(scale, Mapping):
                raise ConfigurationError(
                    "fault model mtbf_scale must map unit labels to factors, "
                    f"got {type(scale).__name__}"
                )
            normalized: Dict[str, Any] = {}
            for key, factor in scale.items():
                if not isinstance(factor, (int, float)) or isinstance(factor, bool) \
                        or not math.isfinite(factor) or factor <= 0:
                    raise ConfigurationError(
                        f"fault model mtbf_scale[{key!r}] must be a positive "
                        f"finite number, got {factor!r}"
                    )
                # JSON object keys are strings, and json.dumps coerces int
                # keys silently -- normalise here so the spec hash and the
                # generation-time lookup always agree.
                normalized[str(key)] = factor
            params = dict(self.params)
            params["mtbf_scale"] = normalized
            object.__setattr__(self, "params", params)
        # Eager parameter validation: a missing/mistyped mtbf_s must fail at
        # spec construction, not replicas-deep inside a campaign worker.
        from repro.faults.distributions import make_distribution

        make_distribution(self.distribution, self.params)

    # -------------------------------------------------------------- json i/o
    def to_dict(self) -> Dict[str, Any]:
        return {
            "distribution": self.distribution,
            "params": dict(self.params),
            "scope": self.scope,
            "horizon_s": self.horizon_s,
            "max_failures": self.max_failures,
            "seed": self.seed,
            "replica": self.replica,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultModelSpec":
        return cls(**dict(data))

    def canonical_json(self) -> str:
        """Deterministic serialisation of the whole spec."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def stream_key(self) -> str:
        """The root of every RNG stream key: the *generation-relevant* spec.

        ``max_failures`` is excluded -- it truncates the merged trace after
        drawing, so a capped trace is always a prefix of the uncapped one
        (same seed, same draws).
        """
        data = self.to_dict()
        data.pop("max_failures", None)
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def describe(self) -> str:
        parts = [self.distribution, f"scope={self.scope}"]
        mtbf = self.params.get("mtbf_s")
        if mtbf is not None:
            parts.append(f"mtbf={mtbf:g}s")
        parts.append(f"seed={self.seed}/r{self.replica}")
        return " ".join(parts)
