"""Campaign job registry: what to compute for a scenario.

A campaign executes *jobs*.  Each job is identified by the ``analysis`` tag
of the scenario (``spec.tags["analysis"]``, defaulting to ``"simulate"``)
and resolved lazily from a dotted ``module:function`` reference, so that

* worker processes resolve jobs by name without pickling callables, and
* the campaign layer never imports the analysis layer (no import cycles).

A job function takes the :class:`~repro.scenarios.spec.ScenarioSpec` and
returns ``(payload, artifact)``:

* ``payload`` -- a pure-JSON dict (pass it through :func:`jsonify`): this is
  what result stores cache and what serial and parallel campaigns must
  reproduce byte-for-byte;
* ``artifact`` -- an optional live Python object (e.g. the full
  :class:`~repro.simulator.simulation.SimulationResult`) for callers that
  need more than the summary; it is only propagated when the campaign runs
  with ``keep_artifacts=True`` and is never cached.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import sys
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.results.run import make_payload
from repro.scenarios.build import build
from repro.scenarios.spec import ScenarioSpec

JobOutcome = Tuple[Dict[str, Any], Any]

#: analysis name -> "module:function" job reference.
ANALYSES: Dict[str, str] = {
    "simulate": "repro.campaign.jobs:simulate",
    "table1-row": "repro.analysis.table1:table1_job",
    "cluster-sweep": "repro.analysis.table1:cluster_sweep_job",
    "piggyback-policy": "repro.analysis.perf_model:piggyback_policy_job",
    "congestion-recovery": "repro.analysis.congestion:congestion_job",
    "montecarlo": "repro.faults.montecarlo:montecarlo_job",
    "montecarlo-replica": "repro.faults.montecarlo:replica_job",
}


def analysis_of(spec: ScenarioSpec) -> str:
    return str(spec.tags.get("analysis", "simulate"))


def resolve_analysis(name: str) -> Callable[[ScenarioSpec], JobOutcome]:
    try:
        reference = ANALYSES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown analysis {name!r}; available: {', '.join(sorted(ANALYSES))}"
        ) from None
    module_name, _, attr = reference.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr)


# --------------------------------------------------------------------- json
def jsonify(obj: Any) -> Any:
    """Normalise ``obj`` to pure JSON types, deterministically.

    Dict keys become strings, tuples become lists, numpy scalars become
    Python numbers, enums become their values.  Applying :func:`jsonify`
    before storing guarantees a fresh record and a cache round-trip compare
    equal, which is what makes serial and parallel campaigns byte-identical.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, enum.Enum):
        return jsonify(obj.value)
    if isinstance(obj, Mapping):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [jsonify(v) for v in items]
    # A numpy value exists only once numpy is loaded, so numpy is looked up,
    # never imported: no run that stores its results loads it.
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return jsonify(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return jsonify(dataclasses.asdict(obj))
    return repr(obj)


# ----------------------------------------------------------------- simulate
def simulate(spec: ScenarioSpec) -> JobOutcome:
    """The default job: build the scenario's simulation and run it.

    The payload is a v2 result section: the run's namespaced metric tree
    plus the per-rank outcomes under ``data`` (see :mod:`repro.results`).
    """
    result = build(spec).run()
    payload = make_payload(
        result.status,
        result.metrics,
        {
            "rank_results": result.rank_results,
            "rank_states": result.rank_states,
        },
    )
    return jsonify(payload), result
