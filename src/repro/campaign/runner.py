"""Execute scenario specs serially or fanned out over worker processes.

The runner is deliberately deterministic: records are keyed and ordered by
the input spec list, never by completion order, and contain no wall-clock
data -- a serial campaign and an N-worker campaign over the same specs
produce byte-identical records (and byte-identical store files).

Completed records are cached in a :class:`~repro.campaign.store.
ResultsStore` keyed by spec hash; a cache hit skips execution entirely.
Specs a caller declares to be the same run (``same_run``) execute once and
share the outcome, one record per spec as always.
"""

from __future__ import annotations

import copy
import multiprocessing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.campaign.jobs import analysis_of, resolve_analysis
from repro.campaign.store import ResultsStore
from repro.errors import ConfigurationError
from repro.scenarios.spec import ScenarioSpec


def run_spec(spec: ScenarioSpec, keep_artifact: bool = False) -> Tuple[Dict[str, Any], Any]:
    """Execute one spec's job; returns ``(record, artifact)``.

    The record embeds the spec itself, so a results store is self-describing
    and a record can be traced back to the exact scenario that produced it.
    """
    job = resolve_analysis(analysis_of(spec))
    payload, artifact = job(spec)
    record = {
        "name": spec.name,
        "spec": spec.to_dict(),
        "spec_hash": spec.spec_hash(),
        "analysis": analysis_of(spec),
        "result": payload,
    }
    return record, (artifact if keep_artifact else None)


def _execute(args: Tuple[int, ScenarioSpec, bool]) -> Tuple[int, Dict[str, Any], Any]:
    index, spec, keep_artifact = args
    record, artifact = run_spec(spec, keep_artifact=keep_artifact)
    return index, record, artifact


@dataclass
class CampaignResult:
    """Outcome of :func:`run_campaign`, ordered like the input specs."""

    specs: List[ScenarioSpec]
    records: List[Dict[str, Any]]
    artifacts: List[Any]
    cache_hits: int = 0
    #: jobs actually run.
    executed: int = 0
    #: records copied from another spec's run (see ``same_run``).
    shared: int = 0
    workers: int = 1
    extra: Dict[str, Any] = field(default_factory=dict)

    def results(self) -> "Any":
        """The records as a queryable :class:`~repro.results.query.ResultSet`."""
        from repro.results.query import ResultSet

        return ResultSet.from_campaign(self)

    def summary_table(self, title: Optional[str] = None) -> str:
        # Imported lazily: the analysis package itself builds on the campaign
        # runner, so a module-level import would be circular.
        from repro.analysis.reporting import format_dict_table
        from repro.results.run import RunResult

        rows = []
        for spec, record in zip(self.specs, self.records):
            run = RunResult.from_record(record, strict=False)
            makespan = run.metric("sim.makespan")
            rows.append(
                {
                    "name": run.name,
                    "scenario": spec.describe(),
                    "analysis": run.analysis,
                    "status": run.status,
                    "makespan_ms": (
                        round(makespan * 1e3, 3)
                        if isinstance(makespan, (int, float))
                        else "-"
                    ),
                    "hash": run.spec_hash,
                }
            )
        return format_dict_table(
            rows,
            columns=["name", "scenario", "analysis", "status", "makespan_ms", "hash"],
            title=title or f"Campaign: {len(self.records)} scenarios "
            f"({self.executed} executed, {self.shared} shared, {self.cache_hits} cached)",
        )


def run_campaign(
    specs: Sequence[ScenarioSpec],
    workers: int = 1,
    store: Optional[ResultsStore] = None,
    force: bool = False,
    keep_artifacts: bool = False,
    same_run: Optional[Callable[[ScenarioSpec], Hashable]] = None,
) -> CampaignResult:
    """Run every spec, using the cache and up to ``workers`` processes.

    * ``store`` -- completed records are looked up / saved there by spec
      hash; ``None`` disables caching.
    * ``force`` -- execute even when a cached record exists.
    * ``keep_artifacts`` -- propagate live job artifacts (e.g. full
      :class:`SimulationResult` objects).  Cache hits have no artifact.
    * ``workers`` -- number of forked processes; ``<= 1`` (or a platform
      without ``fork``) runs in-process.  Workers inherit the parent's
      memory, the active calibration cache included.
    * ``same_run`` -- the caller's promise that two specs with equal keys
      produce the same ``analysis`` and ``result``: of each group only the
      first spec executes (or none, when the store already holds a member),
      and every other member gets that record under its own ``name`` /
      ``spec`` / ``spec_hash`` with a private copy of ``result`` -- stored
      like an executed record, counted as ``shared``, without artifact.
    """
    specs = list(specs)
    if not specs:
        return CampaignResult(specs=[], records=[], artifacts=[])

    records: List[Optional[Dict[str, Any]]] = [None] * len(specs)
    artifacts: List[Any] = [None] * len(specs)
    misses: List[int] = []

    for index, spec in enumerate(specs):
        cached = None if (store is None or force) else store.get(spec.spec_hash())
        if cached is not None:
            records[index] = cached
        else:
            misses.append(index)
    cache_hits = len(specs) - len(misses)

    pending = misses
    #: (index, index of the spec whose record it copies)
    followers: List[Tuple[int, int]] = []
    if same_run is not None and misses:
        # Cache hits register first: a stored record leads its group
        # wherever it sits in the list.
        leaders: Dict[Hashable, int] = {}
        for index, record in enumerate(records):
            if record is not None:
                leaders.setdefault(same_run(specs[index]), index)
        pending = []
        for index in misses:
            leader = leaders.setdefault(same_run(specs[index]), index)
            if leader == index:
                pending.append(index)
            else:
                followers.append((index, leader))

    if pending:
        jobs = [(index, specs[index], keep_artifacts) for index in pending]
        if (workers > 1 and len(jobs) > 1
                and "fork" in multiprocessing.get_all_start_methods()):
            context = multiprocessing.get_context("fork")
            with context.Pool(processes=min(workers, len(jobs))) as pool:
                outcomes = pool.map(_execute, jobs)
        else:
            outcomes = [_execute(job) for job in jobs]
        for index, record, artifact in outcomes:
            records[index] = record
            artifacts[index] = artifact
    for index, leader in followers:
        spec, led = specs[index], records[leader]
        records[index] = {
            **led,
            "name": spec.name,
            "spec": spec.to_dict(),
            "spec_hash": spec.spec_hash(),
            "result": copy.deepcopy(led["result"]),
        }
    if misses and store is not None:
        for index in misses:
            store.put(records[index]["spec_hash"], records[index])
        store.save()

    missing = [i for i, r in enumerate(records) if r is None]
    if missing:
        raise ConfigurationError(f"campaign lost records for spec indexes {missing}")

    return CampaignResult(
        specs=specs,
        records=[r for r in records if r is not None],
        artifacts=artifacts,
        cache_hits=cache_hits,
        executed=len(pending),
        shared=len(followers),
        workers=workers,
    )
