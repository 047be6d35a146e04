"""The wall-clock timer of ``--report`` and the two entries that time phases.

Most registry entries are timed from outside (``repro-experiment <name>
--report DIR`` times their ``run``).  The two here compare phases of their
own work -- exact vs hybrid replicas, self-calibrated vs cached starts -- so
they time those phases themselves and return a report ``dict`` instead of
table rows.  They run serially and never cache: a worker pool or a results
store would change what the rates mean.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Any, Callable, Dict, Tuple

from repro.faults.montecarlo import prewarm_calibration, run_montecarlo
from repro.faults.spec import FaultModelSpec
from repro.scenarios.build import build
from repro.scenarios.spec import (
    ClusteringSpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.simulator.calibration import CalibrationCache, activated
from repro.simulator.hybrid import HybridDirector
from repro.workloads.nas import NAS_BENCHMARKS


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float]:
    """Run ``fn`` and return ``(result, elapsed wall-clock seconds)``."""
    # A benchmark report measures real wall time (lint/config.py's WALL_CLOCK_MODULES).
    clock = time.perf_counter
    started = clock()
    result = fn(*args, **kwargs)
    return result, clock() - started


def _protocol(name: str, checkpoint_interval: int) -> ProtocolSpec:
    """``name`` with small checkpoints; HydEE on four block clusters."""
    return ProtocolSpec(
        name=name,
        clustering=(
            ClusteringSpec(method="block", num_clusters=4) if name == "hydee"
            else ClusteringSpec()
        ),
        options={
            "checkpoint_interval": checkpoint_interval,
            "checkpoint_size_bytes": 65536,
        },
    )


def hybrid_speedup(
    nprocs: int = 16,
    iterations: int = 1400,
    replicas: int = 20,
    checkpoint_interval: int = 8,
    mtbf_makespan_factor: float = 1.5,
) -> Dict[str, Any]:
    """Hybrid execution (analytic fast-forward) vs full discrete-event replicas.

    One Monte Carlo campaign of a long stencil run under HydEE with sparse
    exponential faults -- the regime the hybrid mode targets: failures are
    rare, so almost all simulated time is failure-free steady state -- run
    once with every replica forced to exact execution and once hybrid.  The
    per-rank MTBF is ``mtbf_makespan_factor * nprocs * makespan``: at 1.5 a
    replica sees ~0.7 failures on average, so guard-window DES and recovery
    do occur across the campaign.  Reports replica throughput per mode and
    the relative error of the hybrid mean makespan.  Replicas that drew the
    same trace (the failure-free ones, mostly) share one simulation in both
    modes, so ``executed`` is equal across modes and the speedup compares
    equal sets of simulations.
    """
    base = ScenarioSpec(
        name="bench-hybrid",
        workload=WorkloadSpec(kind="stencil2d", nprocs=nprocs, iterations=iterations),
        protocol=_protocol("hydee", checkpoint_interval),
    )
    makespan = build(base).run().stats.makespan
    spec = dataclasses.replace(
        base,
        fault_model=FaultModelSpec(
            distribution="exponential",
            seed=7,
            params={"mtbf_s": makespan * nprocs * mtbf_makespan_factor},
            horizon_s=makespan,
            max_failures=3,
        ),
    )
    report: Dict[str, Any] = {
        "nprocs": nprocs,
        "iterations": iterations,
        "replicas": replicas,
        "checkpoint_interval": checkpoint_interval,
    }
    for mode in ("exact", "hybrid"):
        result, elapsed = timed(run_montecarlo, spec, replicas=replicas, execution=mode)
        runs = [r for r in result.runs if r.metrics is not None]
        makespans = [r.metrics.get("sim.makespan") for r in runs]
        report[mode] = {
            "elapsed_s": round(elapsed, 3),
            "replica_sims_per_s": round(result.replicas / elapsed, 2),
            "executed": result.executed,
            "completed_replicas": result.completed_replicas,
            "fallback_replicas": sum(
                1 for r in runs if r.metrics.get("sim.hybrid.fallback", 0)
            ),
            "makespan_mean_s": sum(makespans) / len(makespans) if makespans else None,
            "failures_injected": sum(
                int(r.metrics.get("sim.failures_injected", 0) or 0) for r in runs
            ),
        }
    exact, hybrid = report["exact"], report["hybrid"]
    report["speedup"] = round(
        hybrid["replica_sims_per_s"] / exact["replica_sims_per_s"], 2
    )
    report["makespan_mean_rel_err"] = (
        abs(hybrid["makespan_mean_s"] - exact["makespan_mean_s"]) / exact["makespan_mean_s"]
    )
    return report


#: The protocol axis of :func:`ff_coverage`: one protocol that extrapolates
#: its own epoch state and one that has none (no message hook of its own).
_COVERAGE_PROTOCOLS = ("hydee", "coordinated")


def ff_coverage(
    nprocs: int = 16,
    iterations: int = 120,
    checkpoint_interval: int = 8,
) -> Dict[str, Any]:
    """Fast-forward coverage across the bulk-compatible workload catalogue.

    Runs each of the ten deterministic workloads under HydEE and under
    coordinated checkpointing, at ``checkpoint_interval`` and at half of it
    (at least 3), once exact and twice hybrid: self-calibrated, and started
    from a pre-warmed calibration cache the way every Monte Carlo replica
    starts.
    Each cell reports, per start, whether the hybrid executor fast-forwarded
    (no fallback to full DES), how many rank-iterations it skipped
    analytically and how many of those in batched checkpoint intervals, and
    the relative makespan error.  The hybrid mode is only an optimisation of
    the common case if the *whole* grid stays on the fast path, and only an
    optimisation of sweeps if the cached start batches wherever the
    self-calibrated one does.  The NAS kernels run ``iterations // 2``
    (heavier state updates; the sweep is about coverage, not duration).
    ``ring`` under HydEE legitimately batches nothing: its max-based causal
    phase clock has a period of 4 iterations, and only a delta that repeats
    every iteration is batched, so it fast-forwards per message -- the
    cell's ``probe_mismatch`` names a ``hydee.phase`` leaf.  A cell that
    batches a long enough span builds fewer checkpoints (``line_commits``)
    than its fast-forward counts (``ff_checkpoints``): the span jumped to its
    last recovery line, or ``line_mismatch`` names what kept it from it.
    """
    cases = {kind: iterations for kind in ("stencil1d", "stencil2d", "ring", "pipeline")}
    cases.update({kind: iterations // 2 for kind in sorted(NAS_BENCHMARKS)})
    intervals = sorted({max(3, checkpoint_interval // 2), checkpoint_interval})
    workloads: Dict[str, Any] = {}
    for kind, count in cases.items():
        cells: Dict[str, Any] = {}
        for protocol in _COVERAGE_PROTOCOLS:
            for interval in intervals:
                cells[f"{protocol}/{interval}"] = _coverage_cell(
                    ScenarioSpec(
                        name=f"ff-coverage-{kind}-{protocol}-{interval}",
                        workload=WorkloadSpec(kind=kind, nprocs=nprocs, iterations=count),
                        protocol=_protocol(protocol, interval),
                    )
                )
        workloads[kind] = {
            "fallback": any(cell["fallback"] for cell in cells.values()),
            "cells": cells,
        }
    all_cells = [cell for entry in workloads.values() for cell in entry["cells"].values()]
    return {
        "nprocs": nprocs,
        "protocols": list(_COVERAGE_PROTOCOLS),
        "checkpoint_intervals": intervals,
        "workloads_swept": len(workloads),
        "workloads_fast_forwarding": sum(
            1 for entry in workloads.values() if not entry["fallback"]
        ),
        "cells_swept": len(all_cells),
        "cells_batching": {
            start: sum(1 for cell in all_cells if cell[start]["batched_iterations"])
            for start in ("self_calibrated", "cached")
        },
        "workloads": workloads,
    }


def _leaf(mismatch: Any) -> str:
    return f"{mismatch[0]}[{mismatch[1]!r}]" if mismatch else ""


def _coverage_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    """One cell of :func:`ff_coverage`: exact, self-calibrated and cached."""
    exact, exact_s = timed(build(spec).run)
    hybrid = dataclasses.replace(spec, execution="hybrid")
    cache = CalibrationCache()
    prewarm_calibration(hybrid, cache)
    cell: Dict[str, Any] = {"exact_elapsed_s": round(exact_s, 4)}
    for start in ("self_calibrated", "cached"):
        with activated(cache) if start == "cached" else contextlib.nullcontext():
            sim = build(hybrid)
            director = HybridDirector(sim)
            result, seconds = timed(director.run)
        stats = sim.hybrid_stats
        # Failure-free: one epoch, from the warm-up to the last iteration but one.
        first = int(stats["warmup_iterations"])
        last = first + int(stats["ff_iterations"]) // spec.workload.nprocs
        interval = spec.protocol.options["checkpoint_interval"]
        cell[start] = {
            "fallback": bool(stats["fallback"]),
            "fallback_reason": sim.stats.extra.get("hybrid_fallback_reason", ""),
            "warmup_iterations": first,
            "ff_iterations": int(stats["ff_iterations"]),
            "batched_iterations": int(stats["batched_iterations"]),
            # the leaf the last probe (and line check) tripped on; empty
            # when it verified
            "probe_mismatch": _leaf(director.probe_mismatch),
            "line_mismatch": _leaf(director.line_mismatch),
            # rank checkpoints the fast-forward counted, and built
            "ff_checkpoints": spec.workload.nprocs * (last // interval - first // interval),
            "line_commits": int(stats["line_commits"]),
            "makespan_rel_err": (
                abs(result.stats.makespan - exact.stats.makespan) / exact.stats.makespan
            ),
            "elapsed_s": round(seconds, 4),
            "speedup": round(exact_s / max(seconds, 1e-9), 2),
        }
    cell["fallback"] = cell["self_calibrated"]["fallback"] or cell["cached"]["fallback"]
    return cell

