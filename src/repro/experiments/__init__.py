"""The paper's evaluation as one registry of runnable experiments.

Every reproduced artefact -- Table I, Figures 5 and 6, the containment
argument of Sections III-IV, the ablations and the extensions -- is one
:class:`Experiment` entry in :data:`EXPERIMENTS`
(:mod:`repro.experiments.registry`), run by name::

    repro-experiment list                       # or: python -m repro.experiments list
    repro-experiment table1 --workers 6
    repro-experiment figure6 --nprocs 256 --store results.json
    repro-experiment hybrid --report .          # timed, writes BENCH_hybrid.json

    from repro.experiments import run
    rows = run("table1", nprocs=64, benchmarks=["bt", "cg"])

Entries declare their runs as :class:`repro.scenarios.ScenarioSpec` objects
and execute them through the campaign runner (:mod:`repro.campaign`), so
``--workers N`` parallelises and ``--store PATH`` caches any of them.
"""

from repro.experiments.registry import EXPERIMENTS, Experiment, campaign, run
from repro.experiments.runner import main

__all__ = ["EXPERIMENTS", "Experiment", "campaign", "main", "run"]
