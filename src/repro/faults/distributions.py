"""Seeded inter-arrival distributions for stochastic fault models.

Each distribution answers one question -- *how long until this unit's next
failure?* -- and is sampled with an explicit :class:`random.Random` stream
(built by :func:`derive_rng` from SHA-256 of the caller's key material),
never from module-level/global RNG state.  That is what makes fault traces
replayable: the same spec content always produces the same draws, in any
process, in any worker count.

The catalogue mirrors the failure models used by MTBF studies of HPC
systems (and the inhomogeneous-Poisson-process simulation style of
Hohmann's IPPP package, arXiv:1901.10754):

* ``exponential`` -- memoryless Poisson process with per-unit ``mtbf_s``;
* ``weibull``     -- Weibull renewal process (``shape`` < 1 bursty infant
  mortality, ``shape`` > 1 wear-out); parameterised by its *mean* so the
  sweep axis stays "MTBF", not the scale parameter;
* ``fixed``       -- deterministic interval (every ``mtbf_s`` seconds).

Explicit failure times are not a distribution: a scenario lists them in
:attr:`~repro.scenarios.spec.ScenarioSpec.failures`.

Per-node MTBF scaling: :meth:`InterArrivalDistribution.scaled` returns a
copy with the mean multiplied by a unit-specific factor (see
``mtbf_scale`` in :class:`~repro.faults.spec.FaultModelSpec`).
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Any, Dict, Mapping

from repro.errors import ConfigurationError


def derive_seed(*parts: Any) -> int:
    """A 64-bit seed from SHA-256 over the string forms of ``parts``.

    Deterministic across processes and platforms (no ``hash()``
    randomisation), so any RNG stream keyed this way is replayable.
    """
    material = "|".join(str(part) for part in parts)
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(*parts: Any) -> random.Random:
    """A private :class:`random.Random` stream keyed by ``parts``."""
    return random.Random(derive_seed(*parts))


def _require_positive(name: str, value: Any) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(value) or value <= 0:
        raise ConfigurationError(
            f"fault distribution parameter {name!r} must be a positive finite "
            f"number, got {value!r}"
        )
    return float(value)


class InterArrivalDistribution:
    """One unit's time-to-next-failure distribution (seeded, replayable)."""

    kind = "base"

    #: mean inter-arrival time (the unit's MTBF), in simulated seconds.
    mean_s: float = math.inf

    def sample(self, rng: random.Random) -> float:
        """Draw the next inter-arrival time."""
        raise NotImplementedError

    def scaled(self, factor: float) -> "InterArrivalDistribution":
        """Copy of this distribution with the MTBF multiplied by ``factor``."""
        raise NotImplementedError


class ExponentialInterArrival(InterArrivalDistribution):
    """Memoryless (Poisson) failure process with mean ``mtbf_s``."""

    kind = "exponential"

    def __init__(self, mtbf_s: float) -> None:
        self.mean_s = _require_positive("mtbf_s", mtbf_s)

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean_s)

    def scaled(self, factor: float) -> "ExponentialInterArrival":
        return ExponentialInterArrival(self.mean_s * factor)


class WeibullInterArrival(InterArrivalDistribution):
    """Weibull renewal process parameterised by its mean (``mtbf_s``).

    The scale parameter is recovered as ``mtbf_s / gamma(1 + 1/shape)`` so
    sweeping ``mtbf_s`` sweeps the actual mean time between failures
    whatever the shape.
    """

    kind = "weibull"

    def __init__(self, mtbf_s: float, shape: float = 1.5) -> None:
        self.mean_s = _require_positive("mtbf_s", mtbf_s)
        self.shape = _require_positive("shape", shape)
        self.scale_s = self.mean_s / math.gamma(1.0 + 1.0 / self.shape)

    def sample(self, rng: random.Random) -> float:
        return rng.weibullvariate(self.scale_s, self.shape)

    def scaled(self, factor: float) -> "WeibullInterArrival":
        return WeibullInterArrival(self.mean_s * factor, self.shape)


class FixedInterArrival(InterArrivalDistribution):
    """Deterministic failure every ``mtbf_s`` seconds (no randomness)."""

    kind = "fixed"

    def __init__(self, mtbf_s: float) -> None:
        self.mean_s = _require_positive("mtbf_s", mtbf_s)

    def sample(self, rng: random.Random) -> float:
        return self.mean_s

    def scaled(self, factor: float) -> "FixedInterArrival":
        return FixedInterArrival(self.mean_s * factor)


#: distribution kind -> factory(params dict).
DISTRIBUTIONS: Dict[str, Any] = {
    "exponential": lambda params: ExponentialInterArrival(params.get("mtbf_s")),
    "weibull": lambda params: WeibullInterArrival(
        params.get("mtbf_s"), params.get("shape", 1.5)
    ),
    "fixed": lambda params: FixedInterArrival(params.get("mtbf_s")),
}


def make_distribution(kind: str, params: Mapping[str, Any]) -> InterArrivalDistribution:
    """Instantiate the inter-arrival distribution named ``kind``."""
    try:
        factory = DISTRIBUTIONS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown inter-arrival distribution {kind!r}; available: "
            f"{', '.join(sorted(DISTRIBUTIONS))}"
        ) from None
    made: InterArrivalDistribution = factory(dict(params))
    return made
