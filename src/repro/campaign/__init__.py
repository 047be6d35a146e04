"""Campaign runner: execute scenario specs serially or in parallel.

The campaign layer turns lists of :class:`~repro.scenarios.spec.ScenarioSpec`
objects into results: it dispatches each spec to its registered job
(:mod:`repro.campaign.jobs`), fans work out over ``multiprocessing``
workers when asked, caches completed records by spec hash in a JSON
:class:`~repro.campaign.store.ResultsStore`, and aggregates everything into
a :class:`~repro.campaign.runner.CampaignResult` ordered like the input.

Quick use::

    from repro.scenarios import ScenarioSpec, WorkloadSpec, sweep
    from repro.campaign import ResultsStore, run_campaign

    base = ScenarioSpec(name="sweep", workload=WorkloadSpec("stencil2d", 16, 6))
    specs = sweep(base, {"workload.nprocs": [16, 64], "protocol.name": ["none", "hydee-log-all"]})
    outcome = run_campaign(specs, workers=4, store=ResultsStore("results.json"))
    print(outcome.summary_table())

The same campaign is available from the shell as ``python -m repro.campaign``
(or the ``repro-campaign`` console script).
"""

from repro.campaign.jobs import (
    ANALYSES,
    analysis_of,
    jsonify,
    resolve_analysis,
    simulate,
)
from repro.campaign.runner import CampaignResult, run_campaign, run_spec
from repro.campaign.store import ResultsStore

__all__ = [
    "ANALYSES",
    "CampaignResult",
    "ResultsStore",
    "analysis_of",
    "jsonify",
    "resolve_analysis",
    "run_campaign",
    "run_spec",
    "simulate",
]
