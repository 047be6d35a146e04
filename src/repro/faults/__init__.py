"""Stochastic fault-model subsystem: seeded, replayable failure injection.

Layers (bottom up):

* :mod:`repro.faults.distributions` -- seeded inter-arrival distributions
  (exponential, Weibull, fixed-interval) with per-unit MTBF scaling; every
  stream is derived from spec content via SHA-256, never from global RNG
  state.
* :mod:`repro.faults.spec` -- :class:`FaultModelSpec`, the frozen,
  sweepable, JSON-round-trippable description that rides on
  :class:`~repro.scenarios.spec.ScenarioSpec` (mutually exclusive with an
  explicit ``failures`` list).
* :mod:`repro.faults.trace` -- :class:`FailureTrace`: the timed
  :class:`~repro.simulator.failures.FailureEvent` values a spec draws,
  generated ahead of simulation with topology-aware node/cluster scopes.
  To keep or replay a draw, give it to a scenario as its explicit failures:
  ``dataclasses.replace(spec, fault_model=None, failures=tuple(trace))``.
* :mod:`repro.faults.montecarlo` -- N-replica Monte Carlo campaigns over
  the existing parallel campaign runner, aggregated into ``faults.*``
  mean/stddev/CI metrics.  (Imported lazily: the campaign layer sits above
  the scenario layer, which itself imports this package.)
"""

from repro.faults.distributions import (
    DISTRIBUTIONS,
    ExponentialInterArrival,
    FixedInterArrival,
    InterArrivalDistribution,
    WeibullInterArrival,
    derive_rng,
    derive_seed,
    make_distribution,
)
from repro.faults.spec import DISTRIBUTION_KINDS, SCOPES, FaultModelSpec
from repro.faults.trace import FailureTrace, failure_units, generate_trace

#: names resolved lazily from :mod:`repro.faults.montecarlo` (it imports the
#: campaign layer, which imports the scenario layer, which imports this
#: package -- an eager import here would be circular).
_MONTECARLO_EXPORTS = (
    "MonteCarloResult",
    "aggregate_metrics",
    "montecarlo_job",
    "replica_job",
    "replica_specs",
    "run_montecarlo",
)


def __getattr__(name: str):
    if name in _MONTECARLO_EXPORTS:
        from repro.faults import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FaultModelSpec",
    "DISTRIBUTION_KINDS",
    "SCOPES",
    "FailureTrace",
    "generate_trace",
    "failure_units",
    "InterArrivalDistribution",
    "ExponentialInterArrival",
    "WeibullInterArrival",
    "FixedInterArrival",
    "DISTRIBUTIONS",
    "make_distribution",
    "derive_rng",
    "derive_seed",
    *_MONTECARLO_EXPORTS,
]
